// QPU access-time model following the D-Wave documentation as summarized in
// the paper's timing section (Section VIII-C): one long programming step
// (~15 ms), then per sample an anneal (20 us default), a readout (3-4x the
// anneal time), and an inter-sample delay (~20 us), plus a small
// post-processing tail. A 100-read job lands at roughly 30 ms of QPU time.
#pragma once

#include <cstddef>

namespace nck {

struct DWaveTimingModel {
  double programming_us = 15000.0;
  double anneal_us = 20.0;
  double readout_us_per_anneal = 3.5;  // readout = this factor * anneal
  double delay_us = 21.0;
  double postprocess_us = 1000.0;

  double readout_us() const noexcept { return readout_us_per_anneal * anneal_us; }

  double sampling_time_us(std::size_t num_reads) const noexcept {
    return static_cast<double>(num_reads) *
           (anneal_us + readout_us() + delay_us);
  }

  double qpu_access_time_us(std::size_t num_reads) const noexcept {
    return programming_us + sampling_time_us(num_reads) + postprocess_us;
  }
};

struct DWaveTiming {
  std::size_t num_reads = 0;
  double programming_us = 0.0;
  double sampling_us = 0.0;
  double postprocess_us = 0.0;
  double total_us = 0.0;
};

}  // namespace nck
