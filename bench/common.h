// Shared benchmark utilities: aligned table printing and measured execution.
//
// Each bench binary regenerates one table/figure of the evaluation (see
// DESIGN.md's experiment index and EXPERIMENTS.md for paper-vs-measured).
// Results are printed as aligned text tables; timing uses steady_clock and
// cost/I-O numbers come from the engine's own counters, so runs are
// deterministic apart from wall-clock columns.
#pragma once

#include <chrono>
#include <string>
#include <vector>

#include "engine/database.h"

namespace relopt {
namespace bench {

/// Aligned fixed-width table printer for experiment output.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  void AddRow(std::vector<std::string> cells);
  /// Renders to stdout.
  void Print() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format helpers.
std::string F(double v, int precision = 1);
std::string FInt(uint64_t v);

/// Measured execution of one SQL query with a cold cache.
struct Measured {
  double est_total_cost = 0;   ///< optimizer cost estimate (weighted total)
  double est_io = 0;           ///< estimated page I/Os
  double est_rows = 0;
  uint64_t actual_reads = 0;   ///< physical page reads (cold cache)
  uint64_t actual_writes = 0;
  uint64_t pool_accesses = 0;  ///< logical page accesses (hits + misses)
  uint64_t tuples = 0;         ///< tuples processed by operators
  uint64_t rows = 0;           ///< result rows
  double millis = 0;
  std::string plan;            ///< rendered physical plan
  PlanProfile profile;         ///< per-operator actuals of this execution
};

/// Plans and executes `sql` on a cold buffer pool, collecting all counters.
/// Aborts the process on error (benchmark context).
Measured RunMeasured(Database* db, const std::string& sql);

/// RunMeasured three times; returns the run with the lowest wall time.
Measured BestOf3(Database* db, const std::string& sql);

/// Executes an already-built plan on a cold cache.
Measured RunPlanMeasured(Database* db, const PhysicalNode& plan);

/// When the RELOPT_BENCH_JSON_DIR environment variable names a directory,
/// writes `<dir>/<label>.profile.json` (per-operator metrics) and
/// `<dir>/<label>.trace.json` (chrome://tracing event array) for one
/// measured run. No-op when the variable is unset or the profile is empty.
void MaybeDumpProfile(const Measured& m, const std::string& label);

/// When RELOPT_BENCH_JSON_DIR is set, overwrites `<dir>/metrics.json` with
/// the current global MetricsRegistry snapshot, so every benchmark leaves the
/// engine-wide counters next to its per-run result files. Called after each
/// measured run; the final write reflects the whole process.
void MaybeDumpMetricsSnapshot();

/// Plans only (no execution) and reports optimizer stats + elapsed time.
struct PlannedOnly {
  double est_total_cost = 0;
  double millis = 0;
  JoinEnumStats stats;
  std::string plan;
};
PlannedOnly PlanMeasured(Database* db, const std::string& sql);

/// Dies with a message if `status` is not OK.
void CheckOk(const Status& status);

template <typename T>
T Unwrap(Result<T> result) {
  CheckOk(result.status());
  return result.MoveValue();
}

}  // namespace bench
}  // namespace relopt
