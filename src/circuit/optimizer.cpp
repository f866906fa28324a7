#include "circuit/optimizer.hpp"

#include <algorithm>

namespace nck {

OptimizeResult nelder_mead(const Objective& f, std::vector<double> x0,
                           std::size_t max_evaluations) {
  const std::size_t n = x0.size();
  OptimizeResult result;

  struct Point {
    std::vector<double> x;
    double value;
  };
  auto eval = [&](std::vector<double> x) {
    ++result.evaluations;
    const double v = f(x);
    return Point{std::move(x), v};
  };

  // Initial simplex: x0 plus one step along each axis.
  std::vector<Point> simplex;
  simplex.push_back(eval(x0));
  for (std::size_t i = 0; i < n; ++i) {
    auto x = x0;
    x[i] += kNelderMeadInitialStep;
    simplex.push_back(eval(std::move(x)));
  }

  auto by_value = [](const Point& a, const Point& b) {
    return a.value < b.value;
  };

  while (result.evaluations < max_evaluations) {
    std::sort(simplex.begin(), simplex.end(), by_value);
    if (simplex.back().value - simplex.front().value < kNelderMeadTolerance) {
      break;
    }

    // Centroid of all but the worst.
    std::vector<double> centroid(n, 0.0);
    for (std::size_t i = 0; i < simplex.size() - 1; ++i) {
      for (std::size_t d = 0; d < n; ++d) centroid[d] += simplex[i].x[d];
    }
    for (double& c : centroid) c /= static_cast<double>(simplex.size() - 1);

    auto blend = [&](double t) {
      std::vector<double> x(n);
      for (std::size_t d = 0; d < n; ++d) {
        x[d] = centroid[d] + t * (simplex.back().x[d] - centroid[d]);
      }
      return x;
    };

    const Point reflected = eval(blend(-1.0));
    if (reflected.value < simplex.front().value) {
      const Point expanded = eval(blend(-2.0));
      simplex.back() = expanded.value < reflected.value ? expanded : reflected;
    } else if (reflected.value < simplex[simplex.size() - 2].value) {
      simplex.back() = reflected;
    } else {
      const Point contracted = eval(blend(0.5));
      if (contracted.value < simplex.back().value) {
        simplex.back() = contracted;
      } else {
        // Shrink towards the best point.
        for (std::size_t i = 1; i < simplex.size(); ++i) {
          std::vector<double> x(n);
          for (std::size_t d = 0; d < n; ++d) {
            x[d] = 0.5 * (simplex[0].x[d] + simplex[i].x[d]);
          }
          simplex[i] = eval(std::move(x));
          if (result.evaluations >= max_evaluations) break;
        }
      }
    }
  }

  std::sort(simplex.begin(), simplex.end(), by_value);
  result.x = simplex.front().x;
  result.value = simplex.front().value;
  return result;
}

}  // namespace nck
