// Host speed, for timings that stay comparable when the host's speed
// drifts. A shared VM can run the same code 1.5x slower for minutes at a
// time, in CPU time as well as wall time, so raw run-to-run timings
// cannot tell one commit from the next. The benchmark therefore also
// times a fixed calibration task of its own (sorting, hashing into
// node-based tables, floating point, string building: the kinds of work
// the planner does) near its ops, and scales each timing by how fast that
// task ran then. A scaled time is in reference ms: the time the op would
// take on a host where the calibration task takes kCalibRefMs. The task
// calls nothing in the program, so a change to the program cannot move
// it.
#pragma once

#include <cstdint>
#include <vector>

#include "common.h"

namespace perfbench {

/// Calibration task time, ms, that defines the reference host; about
/// what it takes on a 4-vCPU Xeon VM in its fast state.
inline constexpr double kCalibRefMs = 4.0;

/// Runs the calibration task once; returns its CPU time in ms.
double time_calibration();

/// Windows a timed phase is cut into for its host speed: short enough to
/// follow a slow spell, long enough for a steady median.
inline constexpr int kSlices = 8;

/// Calibration times over a timed phase, stamped with when they ran.
class HostSpeed {
 public:
  /// Runs the task once, stamped `at_s` seconds into the phase.
  void sample(double at_s);
  std::size_t size() const { return ms_.size(); }
  /// Median calibration time, ms, over the samples stamped in
  /// [from_s, to_s); over every sample when none is.
  double calib_ms(double from_s, double to_s) const;
  /// Median over every sample.
  double median_ms() const { return median(ms_); }
  /// Factor that turns a time measured in [from_s, to_s) into reference
  /// time: kCalibRefMs / calib_ms(from_s, to_s).
  double scale(double from_s, double to_s) const {
    return kCalibRefMs / calib_ms(from_s, to_s);
  }
  /// Factor for a time measured anywhere in the phase.
  double scale() const { return kCalibRefMs / median_ms(); }
  /// Factor for a time measured at `at_s`: that of its window, when a
  /// phase of `seconds` is cut into kSlices equal windows.
  double scale_at(double at_s, double seconds) const;

 private:
  std::vector<double> at_s_;
  std::vector<double> ms_;
};

/// Scales every sample's latency to reference ms by the host speed of
/// its window.
void to_reference(std::vector<Sample>* samples, const HostSpeed& speed,
                  double seconds);

/// Restricts this thread, and every thread it starts from now on, to the
/// CPU it is running on, so that the timed work and the calibration task
/// share one CPU and its speed.
void pin_to_one_cpu();

}  // namespace perfbench
