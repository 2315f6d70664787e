#include "common.h"

#include <cstdio>
#include <cstdlib>

#include "util/logging.h"
#include "util/metrics.h"
#include "util/str_util.h"

namespace relopt {
namespace bench {

TablePrinter::TablePrinter(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void TablePrinter::AddRow(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

void TablePrinter::Print() const {
  std::vector<size_t> widths;
  for (const std::string& h : headers_) widths.push_back(h.size());
  for (const auto& row : rows_) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i >= widths.size()) widths.push_back(0);
      if (row[i].size() > widths[i]) widths[i] = row[i].size();
    }
  }
  auto print_row = [&](const std::vector<std::string>& cells) {
    for (size_t i = 0; i < widths.size(); ++i) {
      std::string cell = i < cells.size() ? cells[i] : "";
      std::printf("%s%-*s", i == 0 ? "| " : " | ", static_cast<int>(widths[i]), cell.c_str());
    }
    std::printf(" |\n");
  };
  print_row(headers_);
  std::printf("|");
  for (size_t w : widths) {
    std::printf("%s|", std::string(w + 2, '-').c_str());
  }
  std::printf("\n");
  for (const auto& row : rows_) print_row(row);
}

std::string F(double v, int precision) { return StringPrintf("%.*f", precision, v); }

std::string FInt(uint64_t v) { return std::to_string(v); }

void CheckOk(const Status& status) {
  if (!status.ok()) {
    std::fprintf(stderr, "benchmark error: %s\n", status.ToString().c_str());
    std::exit(1);
  }
}

void MaybeDumpProfile(const Measured& m, const std::string& label) {
  const char* dir = std::getenv("RELOPT_BENCH_JSON_DIR");
  if (dir == nullptr || *dir == '\0' || !m.profile.valid) return;
  auto write_file = [&](const std::string& path, const std::string& body) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      RELOPT_LOG(kWarn) << "cannot write " << path;
      return;
    }
    std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
  };
  std::string base = std::string(dir) + "/" + label;
  write_file(base + ".profile.json", m.profile.ToJson());
  write_file(base + ".trace.json", m.profile.ToChromeTrace());
}

void MaybeDumpMetricsSnapshot() {
  const char* dir = std::getenv("RELOPT_BENCH_JSON_DIR");
  if (dir == nullptr || *dir == '\0') return;
  std::string path = std::string(dir) + "/metrics.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    RELOPT_LOG(kWarn) << "cannot write " << path;
    return;
  }
  std::string body = MetricsRegistry::Global().ToJson();
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
}

Measured RunPlanMeasured(Database* db, const PhysicalNode& plan) {
  Measured m;
  m.est_total_cost = plan.est_cost().Total();
  m.est_io = plan.est_cost().page_ios;
  m.est_rows = plan.est_rows();
  m.plan = plan.ToString();

  // Cold cache: write back and drop everything evictable.
  CheckOk(db->pool()->FlushAll());
  CheckOk(db->pool()->EvictAll());
  db->ResetCounters();

  auto start = std::chrono::steady_clock::now();
  QueryResult result = Unwrap(db->ExecutePlan(plan));
  auto end = std::chrono::steady_clock::now();

  const ExecutionMetrics& metrics = db->last_metrics();
  m.actual_reads = metrics.io.page_reads;
  m.actual_writes = metrics.io.page_writes;
  m.pool_accesses = metrics.pool.hits + metrics.pool.misses;
  m.tuples = metrics.tuples_processed;
  m.rows = result.rows.size();
  m.millis = std::chrono::duration<double, std::milli>(end - start).count();
  m.profile = db->last_profile();

  // Numbered dump per process so repeated runs don't clobber each other.
  static int run_counter = 0;
  MaybeDumpProfile(m, StringPrintf("run%04d", run_counter++));
  MaybeDumpMetricsSnapshot();
  return m;
}

Measured RunMeasured(Database* db, const std::string& sql) {
  PhysicalPtr plan = Unwrap(db->PlanQuery(sql));
  return RunPlanMeasured(db, *plan);
}

Measured BestOf3(Database* db, const std::string& sql) {
  Measured best;
  for (int rep = 0; rep < 3; ++rep) {
    Measured m = RunMeasured(db, sql);
    if (rep == 0 || m.millis < best.millis) best = m;
  }
  return best;
}

PlannedOnly PlanMeasured(Database* db, const std::string& sql) {
  PlannedOnly p;
  OptimizeInfo info;
  auto start = std::chrono::steady_clock::now();
  PhysicalPtr plan = Unwrap(db->PlanQuery(sql, &info));
  auto end = std::chrono::steady_clock::now();
  p.est_total_cost = plan->est_cost().Total();
  p.millis = std::chrono::duration<double, std::milli>(end - start).count();
  p.stats = info.enum_stats;
  p.plan = plan->ToString();
  return p;
}

}  // namespace bench
}  // namespace relopt
