// V1 — Vectorized (batch-at-a-time) execution vs row-at-a-time Volcano.
//
// Full-table scan/filter/project/join/limit queries over a ~200k-row table,
// executed row-at-a-time and with TupleBatch sizes 1/64/1024. Expected shape:
// batch 1024 amortizes the per-row iterator overhead (virtual Next, timer,
// I/O-attribution switches) and the per-row deserialize allocations, giving
// >=2x on scan+filter+project pipelines; batch 1 pays the batch machinery
// without amortizing anything and lands at or slightly below row mode. Page
// reads are identical across modes by construction (both pin one page at a
// time), which the `reads` column makes visible. The optional argv[1]
// overrides the row count (tiny values = sanitizer smoke runs).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common.h"
#include "workload/generator.h"

using namespace relopt;
using namespace relopt::bench;

namespace {

struct RunPoint {
  std::string query_label;
  std::string mode;  // "row", "batch1", ...
  size_t batch_size = 0;  // 0 = row mode
  double ms = 0;
  uint64_t reads = 0;
  uint64_t rows = 0;
  double speedup = 1.0;  // row_ms / ms
};

void DumpSummary(const std::vector<RunPoint>& points, size_t table_rows) {
  const char* dir = std::getenv("RELOPT_BENCH_JSON_DIR");
  if (dir == nullptr || *dir == '\0') return;
  std::string path = std::string(dir) + "/vectorized_summary.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "{\"table_rows\":%zu,\"points\":[", table_rows);
  for (size_t i = 0; i < points.size(); ++i) {
    const RunPoint& p = points[i];
    std::fprintf(f,
                 "%s{\"query\":\"%s\",\"mode\":\"%s\",\"batch_size\":%zu,\"ms\":%.3f,"
                 "\"page_reads\":%llu,\"rows\":%llu,\"speedup_vs_row\":%.3f}",
                 i == 0 ? "" : ",", p.query_label.c_str(), p.mode.c_str(), p.batch_size, p.ms,
                 static_cast<unsigned long long>(p.reads),
                 static_cast<unsigned long long>(p.rows), p.speedup);
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  size_t table_rows = 200000;
  if (argc > 1) table_rows = static_cast<size_t>(std::strtoull(argv[1], nullptr, 10));
  if (table_rows == 0) table_rows = 200000;

  std::printf(
      "V1: vectorized batch execution vs row-at-a-time -- %zu-row table,\n"
      "batch sizes 1/64/1024 vs the classic Volcano row loop. Identical page\n"
      "reads across modes; the speedup is pure per-row-overhead amortization.\n\n",
      table_rows);

  SessionOptions options;
  options.buffer_pool_pages = 512;
  Database db(options);

  TableSpec big;
  big.name = "big";
  big.num_rows = table_rows;
  big.columns = {ColumnSpec::Serial("id"), ColumnSpec::Uniform("k", 0, 999),
                 ColumnSpec::Uniform("pad", 0, 1000000)};
  CheckOk(GenerateTable(&db, big));

  TableSpec dim;
  dim.name = "dim";
  dim.num_rows = std::max<size_t>(1, std::min<size_t>(1000, table_rows / 10));
  dim.columns = {ColumnSpec::Serial("id"), ColumnSpec::Uniform("v", 0, 100)};
  dim.seed = 99;
  CheckOk(GenerateTable(&db, dim));

  struct QuerySpec {
    const char* label;
    std::string sql;
  };
  const QuerySpec kQueries[] = {
      {"scan_project", "SELECT id, k, pad FROM big"},
      {"scan_filter_project", "SELECT id, pad * 2 + 1 FROM big WHERE pad < 500000"},
      {"selective_filter", "SELECT id FROM big WHERE k < 100"},
      {"hash_join", "SELECT big.id, dim.v FROM big, dim WHERE big.k = dim.id"},
      {"limit", "SELECT id FROM big LIMIT " + std::to_string(std::min<size_t>(1000, table_rows))},
      // Expression-heavy section: deep trees through the compiled batch
      // expression engine (CASE, OR-chains, expression group keys). The
      // dedicated bench_expr binary covers the full expression corpus.
      {"expr_case_or",
       "SELECT id, CASE WHEN pad > 750000 THEN 3 WHEN pad > 500000 THEN 2 ELSE 1 END "
       "FROM big WHERE k < 200 OR k > 800 OR pad % 97 = 0"},
      {"expr_group_key", "SELECT k % 16, count(*), sum(pad) FROM big GROUP BY k % 16"},
  };
  const size_t kBatchSizes[] = {1, 64, 1024};

  std::vector<RunPoint> points;
  TablePrinter table({"query", "mode", "ms", "reads", "rows", "speedup_vs_row"});
  double headline_speedup = 0;  // scan_filter_project @ 1024

  for (const QuerySpec& q : kQueries) {
    db.set_vectorized(false);
    Measured row = BestOf3(&db, q.sql);
    RunPoint rp{q.label, "row", 0, row.millis, row.actual_reads, row.rows, 1.0};
    points.push_back(rp);
    table.AddRow({q.label, "row", F(row.millis, 2), FInt(row.actual_reads), FInt(row.rows),
                  F(1.0, 2)});
    MaybeDumpProfile(row, std::string("vectorized_") + q.label + "_row");

    db.set_vectorized(true);
    for (size_t bs : kBatchSizes) {
      db.set_batch_size(bs);
      Measured vec = BestOf3(&db, q.sql);
      double speedup = vec.millis > 0 ? row.millis / vec.millis : 0;
      std::string mode = "batch" + std::to_string(bs);
      points.push_back({q.label, mode, bs, vec.millis, vec.actual_reads, vec.rows, speedup});
      table.AddRow({q.label, mode, F(vec.millis, 2), FInt(vec.actual_reads), FInt(vec.rows),
                    F(speedup, 2)});
      if (std::string(q.label) == "scan_filter_project" && bs == 1024) {
        headline_speedup = speedup;
        MaybeDumpProfile(vec, "vectorized_scan_filter_project_batch1024");
      }
    }
    db.set_batch_size(TupleBatch::kDefaultCapacity);
  }

  // Vectorized + parallel composition: workers push whole batches through
  // the Gather. Absolute times on a single-hardware-thread host show the
  // parallel overhead, not a speedup; the point is that the modes compose.
  {
    const std::string sql = kQueries[1].sql;
    db.set_parallelism(2);
    db.set_vectorized(false);
    Measured row = BestOf3(&db, sql);
    points.push_back({"scan_filter_project_par2", "row", 0, row.millis, row.actual_reads,
                      row.rows, 1.0});
    table.AddRow({"scan_filter_project_par2", "row", F(row.millis, 2), FInt(row.actual_reads),
                  FInt(row.rows), F(1.0, 2)});
    db.set_vectorized(true);
    db.set_batch_size(1024);
    Measured vec = BestOf3(&db, sql);
    double speedup = vec.millis > 0 ? row.millis / vec.millis : 0;
    points.push_back({"scan_filter_project_par2", "batch1024", 1024, vec.millis,
                      vec.actual_reads, vec.rows, speedup});
    table.AddRow({"scan_filter_project_par2", "batch1024", F(vec.millis, 2),
                  FInt(vec.actual_reads), FInt(vec.rows), F(speedup, 2)});
    db.set_parallelism(1);
    db.set_batch_size(TupleBatch::kDefaultCapacity);
  }

  table.Print();
  std::printf("\nheadline: scan+filter+project @ batch 1024 is %.2fx row-at-a-time\n",
              headline_speedup);
  DumpSummary(points, table_rows);
  return 0;
}
