// The four benchmark workloads. Every input is a pure function of the seed:
// column values are hashes of (seed, row id, column), and statement i of
// session s draws from a generator seeded by (seed, s, i).
#include <functional>
#include <iterator>
#include <unordered_map>

#include "harness.h"
#include "util/timer.h"
#include "workload/queries.h"

namespace perfbench {

using relopt::Column;
using relopt::PreparedStatement;
using relopt::Schema;
using relopt::TableInfo;
using relopt::Tuple;
using relopt::TypeId;

namespace {

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// A column value: a hash of (seed, row, column) reduced to [0, range).
int64_t Cell(uint64_t seed, int64_t row, int column, int64_t range) {
  return static_cast<int64_t>(
      Mix(seed ^ Mix(static_cast<uint64_t>(row) * 64 + static_cast<uint64_t>(column))) %
      static_cast<uint64_t>(range));
}

/// splitmix64 stream for statement generation.
class Prng {
 public:
  explicit Prng(uint64_t seed) : state_(seed) {}
  uint64_t Next() { return Mix(state_++); }
  int64_t Uniform(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }

 private:
  uint64_t state_;
};

std::string Letters(uint64_t h, size_t n) {
  std::string s(n, 'a');
  for (size_t k = 0; k < n; ++k, h /= 26) s[k] = static_cast<char>('a' + h % 26);
  return s;
}

/// `sql` with each `?` replaced by the rendered literal of its parameter.
std::string Render(const std::string& sql, const std::vector<Value>& params) {
  std::string out;
  size_t next = 0;
  for (char c : sql) {
    if (c == '?' && next < params.size()) {
      out += params[next++].ToString();
    } else {
      out += c;
    }
  }
  return out;
}

bool IntIs(const Value& v, int64_t expected) {
  return !v.is_null() && v.type() == TypeId::kInt64 && v.AsInt() == expected;
}
bool IntIn(const Value& v, int64_t lo, int64_t hi) {
  return !v.is_null() && v.type() == TypeId::kInt64 && v.AsInt() >= lo && v.AsInt() < hi;
}
bool StrIs(const Value& v, const std::string& expected) {
  return !v.is_null() && v.type() == TypeId::kString && v.AsString() == expected;
}

/// Times `fn` into `*seconds`.
Status Timed(double* seconds, const std::function<Status()>& fn) {
  const uint64_t start = relopt::MonotonicNanos();
  Status s = fn();
  *seconds += static_cast<double>(relopt::MonotonicNanos() - start) / 1e9;
  return s;
}

/// Creates `name` and inserts `rows` rows from `make_row` through the catalog.
Status LoadTable(Database* db, const std::string& name,
                 const std::vector<std::pair<std::string, TypeId>>& columns, int64_t rows,
                 const std::function<Tuple(int64_t)>& make_row, SetupTimes* times) {
  return Timed(&times->load_s, [&]() -> Status {
    Schema schema;
    for (const auto& [col, type] : columns) schema.AddColumn(Column(col, type, name));
    RELOPT_ASSIGN_OR_RETURN(TableInfo * table, db->catalog()->CreateTable(name, schema));
    for (int64_t r = 0; r < rows; ++r) {
      RELOPT_RETURN_NOT_OK(db->catalog()->InsertTuple(table, make_row(r)).status());
    }
    return Status::OK();
  });
}

Status CreateIndex(Database* db, const std::string& table, const std::string& column,
                   SetupTimes* times) {
  return Timed(&times->index_s, [&]() -> Status {
    return db->catalog()->CreateIndex("idx_" + table + "_" + column, table, {column}).status();
  });
}

Status Analyze(Database* db, const std::vector<std::string>& tables, SetupTimes* times) {
  return Timed(&times->analyze_s, [&]() -> Status {
    for (const std::string& t : tables) RELOPT_RETURN_NOT_OK(db->catalog()->AnalyzeTable(t));
    return Status::OK();
  });
}

/// A result with one row of `columns` values.
const Tuple* OnlyRow(const QueryResult& r, size_t columns) {
  if (r.rows.size() != 1 || r.rows[0].NumValues() != columns) return nullptr;
  return &r.rows[0];
}

// --- OLTP: point lookups over a 200k-row indexed fact table ------------------

/// Shared by oltp_point (reads only, checked exactly) and oltp_mixed_rw
/// (reads plus ~10% single-row writes, reads checked by invariants and the
/// final table state checked against each session's own write log).
class OltpWorkload : public Workload {
 public:
  static constexpr int64_t kFactRows = 200000;
  static constexpr int64_t kDimRows = 1000;
  static constexpr int64_t kGroups = 97;
  static constexpr int64_t kRangeWidth = 16;
  static constexpr int kSessions = 2;

  enum Template { kPoint, kRange, kJoin2, kJoin3, kInsert, kUpdate, kDelete, kNumTemplates };

  /// Read templates of one pass, in order: 40% point, 20% each of range,
  /// 2-way and 3-way join. A fixed schedule, rather than a random draw per
  /// statement, keeps each template's share of a window exact. In
  /// oltp_mixed_rw the last statement of each pass (a point read) becomes
  /// a write.
  static constexpr int kPassLength = 10;
  static constexpr Template kPass[kPassLength] = {kPoint, kRange, kJoin2, kPoint, kJoin3,
                                                  kPoint, kJoin2, kRange, kJoin3, kPoint};

  OltpWorkload(uint64_t seed, bool mixed) : seed_(seed), mixed_(mixed) {
    if (mixed_) {
      for (int s = 0; s < kSessions; ++s) {
        Partition& p = partitions_[s];
        for (int64_t id = s; id < kFactRows; id += kSessions) p.Add(id, BaseVal(id));
        p.next_new = kFactRows + s;
      }
    }
  }

  const char* name() const override { return mixed_ ? "oltp_mixed_rw" : "oltp_point"; }
  const char* why() const override {
    return mixed_
               ? "Same fixture and reads with ~10% single-row writes per session partition: "
                 "writers take the exclusive statement lock and the heap, B+tree and dirty-page "
                 "paths, so a read-path gain that costs writers shows here, and the reverse."
               : "Prepared point, short-range and 2/3-way point-anchored joins over a 200k-row "
                 "indexed table that fits the pool: parser, binder, optimizer and plan cache do "
                 "almost all the work, exec and storage almost none.";
  }
  std::string sizes() const override {
    return "fact 200000 rows (index on id), dim 1000 rows (index on id), pool 8192 pages; "
           "2 sessions, closed loop, keys uniform over the table; passes of 10 reads: 4 point, "
           "2 range of 16 keys, 2 2-way join, 2 3-way join" +
           std::string(mixed_ ? "; the last read of each pass replaced by a write (INSERT of a "
                                "new key, UPDATE by key, DELETE by key in turn) in the session's "
                                "own id parity"
                              : "");
  }
  int num_sessions() const override { return kSessions; }
  int num_setups() const override { return 4; }
  size_t pool_pages() const override { return 8192; }
  uint64_t pass_length() const override { return kPassLength; }
  bool has_writes() const override { return mixed_; }

  Status Setup(Database* db, SetupTimes* times) override {
    RELOPT_RETURN_NOT_OK(LoadTable(
        db, "fact",
        {{"id", TypeId::kInt64},
         {"dim_id", TypeId::kInt64},
         {"grp", TypeId::kInt64},
         {"val", TypeId::kInt64},
         {"note", TypeId::kString}},
        kFactRows, [&](int64_t id) { return FactRow(id, BaseVal(id)); }, times));
    RELOPT_RETURN_NOT_OK(LoadTable(
        db, "dim",
        {{"id", TypeId::kInt64},
         {"name", TypeId::kString},
         {"region", TypeId::kInt64},
         {"anchor", TypeId::kInt64}},
        kDimRows,
        [&](int64_t id) {
          return Tuple({Value::Int(id), Value::String(DimName(id)), Value::Int(id % 10),
                        Value::Int(Anchor(id))});
        },
        times));
    RELOPT_RETURN_NOT_OK(CreateIndex(db, "fact", "id", times));
    RELOPT_RETURN_NOT_OK(CreateIndex(db, "dim", "id", times));
    return Analyze(db, {"fact", "dim"}, times);
  }

  Status Prepare(int s, Session* session) override {
    static const char* const kSql[kNumTemplates] = {
        "SELECT id, dim_id, grp, val FROM fact WHERE id = ?",
        "SELECT count(*), sum(val) FROM fact WHERE id >= ? AND id < ?",
        "SELECT f.id, f.dim_id, f.val, d.name FROM fact f, dim d "
        "WHERE f.id = ? AND f.dim_id = d.id",
        "SELECT f.id, f.dim_id, d.anchor, g.id, g.val FROM fact f, dim d, fact g "
        "WHERE f.id = ? AND f.dim_id = d.id AND d.anchor = g.id",
        "INSERT INTO fact VALUES (?, ?, ?, ?, ?)",
        "UPDATE fact SET val = ? WHERE id = ?",
        "DELETE FROM fact WHERE id = ?",
    };
    for (int t = 0; t < kNumTemplates; ++t) {
      sql_[t] = kSql[t];
      RELOPT_ASSIGN_OR_RETURN(prepared_[s][t], session->Prepare(kSql[t]));
    }
    return Status::OK();
  }

  CheckCount CrossCheck(Database*) override { return {}; }

  Stmt Next(int s, uint64_t i) override {
    Prng rng(Mix(seed_ ^ Mix((static_cast<uint64_t>(s) << 40) + i)));
    Stmt stmt;
    stmt.tmpl = kPass[i % kPassLength];
    if (mixed_ && i % kPassLength == kPassLength - 1) {
      // The pass's last statement is a write; its kind rotates by pass.
      Partition& p = partitions_[s];
      const uint64_t kind = (i / kPassLength) % 3;
      stmt.write = true;
      if (kind == 0 || p.live.empty()) {
        const int64_t id = p.next_new;
        p.next_new += kSessions;
        const int64_t val = Cell(seed_, id, 3, 1000);
        p.Add(id, val);
        stmt.tmpl = kInsert;
        const Tuple row = FactRow(id, val);
        for (size_t c = 0; c < row.NumValues(); ++c) stmt.params.push_back(row.At(c));
      } else {
        const int64_t id = p.live[static_cast<size_t>(rng.Next() % p.live.size())];
        if (kind == 1) {
          const int64_t val = rng.Uniform(0, 999);
          p.val[id] = val;
          stmt.tmpl = kUpdate;
          stmt.params = {Value::Int(val), Value::Int(id)};
        } else {
          p.Remove(id);
          stmt.tmpl = kDelete;
          stmt.params = {Value::Int(id)};
        }
      }
    } else if (stmt.tmpl == kRange) {
      const int64_t lo = rng.Uniform(0, kFactRows - kRangeWidth);
      stmt.params = {Value::Int(lo), Value::Int(lo + kRangeWidth)};
    } else {
      stmt.params = {Value::Int(rng.Uniform(0, kFactRows - 1))};
    }
    stmt.sql = Render(sql_[stmt.tmpl], stmt.params);
    return stmt;
  }

  Result<QueryResult> Execute(int s, Session*, const Stmt& stmt) override {
    return prepared_[s][stmt.tmpl]->Execute(stmt.params);
  }

  bool Check(int s, const Stmt& stmt, const QueryResult& r) override {
    if (stmt.write) return r.rows.empty();
    const int64_t k = stmt.params[0].AsInt();
    return mixed_ ? CheckMixed(s, stmt, k, r) : CheckExact(stmt, k, r);
  }

  CheckCount FinalCheck(Database* db) override {
    CheckCount out;
    Result<QueryResult> r = db->Execute("SELECT id, dim_id, grp, val FROM fact");
    if (!r.ok()) {
      out.Add(false);
      return out;
    }
    // The expected table: every session's partition after a serial replay
    // of that session's own writes (the partitions are disjoint).
    std::unordered_map<int64_t, int64_t> expected;
    if (mixed_) {
      for (const Partition& p : partitions_) {
        for (int64_t id : p.live) expected[id] = p.val.at(id);
      }
    } else {
      for (int64_t id = 0; id < kFactRows; ++id) expected[id] = BaseVal(id);
    }
    bool ok = r->rows.size() == expected.size();
    for (const Tuple& row : r->rows) {
      if (!ok) break;
      const int64_t id = row.At(0).AsInt();
      auto it = expected.find(id);
      ok = it != expected.end() && IntIs(row.At(1), DimOf(id)) &&
           IntIs(row.At(2), id % kGroups) && IntIs(row.At(3), it->second);
      if (ok) expected.erase(it);  // a duplicated id fails on its second copy
    }
    out.Add(ok);
    return out;
  }

 private:
  /// One session's key partition (ids of its parity) and their values.
  struct Partition {
    std::vector<int64_t> live;
    std::unordered_map<int64_t, size_t> pos;
    std::unordered_map<int64_t, int64_t> val;
    int64_t next_new = 0;

    void Add(int64_t id, int64_t v) {
      pos[id] = live.size();
      live.push_back(id);
      val[id] = v;
    }
    void Remove(int64_t id) {
      const size_t at = pos.at(id);
      live[at] = live.back();
      pos[live[at]] = at;
      live.pop_back();
      pos.erase(id);
      val.erase(id);
    }
  };

  int64_t DimOf(int64_t id) const { return Cell(seed_, id, 1, kDimRows); }
  int64_t BaseVal(int64_t id) const { return Cell(seed_, id, 2, 1000); }
  int64_t Anchor(int64_t dim) const { return Cell(seed_, dim, 4, kFactRows); }
  std::string DimName(int64_t dim) const { return "dim-" + Letters(Mix(seed_ ^ dim), 8); }
  Tuple FactRow(int64_t id, int64_t val) const {
    return Tuple({Value::Int(id), Value::Int(DimOf(id)), Value::Int(id % kGroups),
                  Value::Int(val), Value::String(Letters(Mix(seed_ + id), 12))});
  }

  bool CheckExact(const Stmt& stmt, int64_t k, const QueryResult& r) const {
    switch (stmt.tmpl) {
      case kPoint: {
        const Tuple* row = OnlyRow(r, 4);
        return row && IntIs(row->At(0), k) && IntIs(row->At(1), DimOf(k)) &&
               IntIs(row->At(2), k % kGroups) && IntIs(row->At(3), BaseVal(k));
      }
      case kRange: {
        int64_t sum = 0;
        for (int64_t id = k; id < k + kRangeWidth; ++id) sum += BaseVal(id);
        const Tuple* row = OnlyRow(r, 2);
        return row && IntIs(row->At(0), kRangeWidth) && !row->At(1).is_null() &&
               row->At(1).NumericAsDouble() == static_cast<double>(sum);
      }
      case kJoin2: {
        const Tuple* row = OnlyRow(r, 4);
        return row && IntIs(row->At(0), k) && IntIs(row->At(1), DimOf(k)) &&
               IntIs(row->At(2), BaseVal(k)) && StrIs(row->At(3), DimName(DimOf(k)));
      }
      case kJoin3: {
        const int64_t g = Anchor(DimOf(k));
        const Tuple* row = OnlyRow(r, 5);
        return row && IntIs(row->At(0), k) && IntIs(row->At(1), DimOf(k)) &&
               IntIs(row->At(2), g) && IntIs(row->At(3), g) && IntIs(row->At(4), BaseVal(g));
      }
      default:
        return false;
    }
  }

  /// A read of oltp_mixed_rw by session s. Session s alone writes the ids
  /// of its parity, and all its writes have run before this read, so for
  /// those ids its partition gives the exact state: whether the row exists
  /// and its val. Rows of the other parity race with the other session's
  /// writes; for them only what no write can change is checked: the
  /// immutable columns, value ranges and row counts.
  bool CheckMixed(int s, const Stmt& stmt, int64_t k, const QueryResult& r) const {
    const Partition& own = partitions_[s];
    auto known = [&](int64_t id) { return id % kSessions == s; };
    auto live = [&](int64_t id) { return own.pos.count(id) > 0; };
    auto val_ok = [&](const Value& v, int64_t id) {
      return known(id) ? IntIs(v, own.val.at(id)) : IntIn(v, 0, 1000);
    };

    if (stmt.tmpl == kRange) {
      // Ids of the other parity are never inserted, only updated or deleted.
      int64_t own_count = 0, own_sum = 0, other_ids = 0;
      for (int64_t id = k; id < k + kRangeWidth; ++id) {
        if (!known(id)) {
          ++other_ids;
        } else if (live(id)) {
          ++own_count;
          own_sum += own.val.at(id);
        }
      }
      const Tuple* row = OnlyRow(r, 2);
      if (!row || !IntIn(row->At(0), own_count, own_count + other_ids + 1)) return false;
      const int64_t other_count = row->At(0).AsInt() - own_count;
      if (row->At(0).AsInt() == 0) return true;
      if (row->At(1).is_null()) return false;
      const double other_sum = row->At(1).NumericAsDouble() - static_cast<double>(own_sum);
      return other_sum >= 0 && other_sum <= 999.0 * static_cast<double>(other_count);
    }

    // f (id k) must exist; on kJoin3 so must g, the row its dimension anchors.
    const int64_t g = Anchor(DimOf(k));
    if (r.rows.empty()) {
      const bool f_may_miss = !known(k) || !live(k);
      const bool g_may_miss = stmt.tmpl == kJoin3 && (!known(g) || !live(g));
      return f_may_miss || g_may_miss;
    }
    if (known(k) && !live(k)) return false;
    if (stmt.tmpl == kJoin3 && known(g) && !live(g)) return false;
    const size_t width = stmt.tmpl == kJoin3 ? 5 : 4;
    const Tuple* row = OnlyRow(r, width);
    if (!row || !IntIs(row->At(0), k) || !IntIs(row->At(1), DimOf(k))) return false;
    switch (stmt.tmpl) {
      case kPoint:
        return IntIs(row->At(2), k % kGroups) && val_ok(row->At(3), k);
      case kJoin2:
        return val_ok(row->At(2), k) && StrIs(row->At(3), DimName(DimOf(k)));
      case kJoin3:
        return IntIs(row->At(2), g) && IntIs(row->At(3), g) && val_ok(row->At(4), g);
      default:
        return false;
    }
  }

  const uint64_t seed_;
  const bool mixed_;
  std::string sql_[kNumTemplates];
  PreparedStatement* prepared_[kSessions][kNumTemplates] = {};
  Partition partitions_[kSessions];
};

// --- OLAP: analytic scans, joins, aggregates and a spilling sort --------------

/// Runs ad-hoc text queries in a fixed order against two tables several
/// times the size of the default 256-page pool.
class OlapWorkload : public Workload {
 public:
  static constexpr int64_t kSalesRows = 80000;
  static constexpr int64_t kStoreRows = 2000;
  static constexpr int64_t kCustomers = 20000;
  static constexpr int kSortQuery = 4;

  // The literals are fixed so that every seed reads and sorts the same share
  // of rows; the seed changes only the data.
  explicit OlapWorkload(uint64_t seed) : seed_(seed) {
    queries_ = {
        // scan + filter + project
        "SELECT id, cust_id, amount FROM sales WHERE amount > 950 AND qty < 25",
        // fact x dimension hash join
        "SELECT count(*), sum(s.amount) FROM sales s, store t "
        "WHERE s.store_id = t.id AND t.size > 45",
        // low-cardinality GROUP BY
        "SELECT region, count(*), sum(amount) FROM sales GROUP BY region",
        // high-cardinality GROUP BY
        "SELECT cust_id, count(*), sum(qty) FROM sales GROUP BY cust_id",
        // ORDER BY over more rows than the sort's memory budget holds
        "SELECT id, cust_id, amount FROM sales WHERE qty < 31 ORDER BY amount, id",
        // join + GROUP BY
        "SELECT t.region, count(*), sum(s.qty) FROM sales s, store t "
        "WHERE s.store_id = t.id GROUP BY t.region",
        // filtered aggregate
        "SELECT count(*), sum(amount), min(qty), max(qty) FROM sales WHERE cust_id < 5500",
    };
  }

  const char* name() const override { return "olap_analytic"; }
  const char* why() const override {
    return "One session runs fixed analytic queries (scan+filter, hash join, low- and "
           "high-cardinality GROUP BY, spilling ORDER BY) over tables several times the "
           "default pool: exec, expr kernels and storage do the work, the optimizer almost none.";
  }
  std::string sizes() const override {
    return "sales 80000 rows, store 2000 rows, no indexes, pool 256 pages; 1 session, closed "
           "loop, 7 queries in a fixed order (scan+filter+project, sales-store hash join, "
           "8-group GROUP BY, 20000-group GROUP BY, ~60% of sales ORDER BY, join+GROUP BY, "
           "filtered aggregate)";
  }
  int num_sessions() const override { return 1; }
  int num_setups() const override { return 10; }
  size_t pool_pages() const override { return 256; }
  uint64_t pass_length() const override { return queries_.size(); }
  bool has_writes() const override { return false; }

  Status Setup(Database* db, SetupTimes* times) override {
    RELOPT_RETURN_NOT_OK(LoadTable(
        db, "sales",
        {{"id", TypeId::kInt64},
         {"store_id", TypeId::kInt64},
         {"cust_id", TypeId::kInt64},
         {"qty", TypeId::kInt64},
         {"amount", TypeId::kInt64},
         {"region", TypeId::kInt64},
         {"note", TypeId::kString}},
        kSalesRows, [&](int64_t id) { return SalesRow(id); }, times));
    RELOPT_RETURN_NOT_OK(LoadTable(
        db, "store",
        {{"id", TypeId::kInt64},
         {"region", TypeId::kInt64},
         {"size", TypeId::kInt64},
         {"name", TypeId::kString}},
        kStoreRows,
        [&](int64_t id) {
          return Tuple({Value::Int(id), Value::Int(Cell(seed_, id, 11, 12)),
                        Value::Int(Cell(seed_, id, 12, 100)),
                        Value::String(Letters(Mix(seed_ ^ (id + 7)), 10))});
        },
        times));
    return Analyze(db, {"sales", "store"}, times);
  }

  Status Prepare(int, Session*) override { return Status::OK(); }

  /// Reference checksums from the default session; every query must give
  /// the same result row-at-a-time and under greedy join enumeration.
  CheckCount CrossCheck(Database* db) override {
    CheckCount out;
    Session* row_mode = db->CreateSession();
    row_mode->set_vectorized(false);
    Session* greedy = db->CreateSession();
    greedy->options().optimizer.join.algorithm = relopt::JoinEnumAlgorithm::kGreedy;
    reference_.clear();
    for (const std::string& sql : queries_) {
      Result<QueryResult> ref = db->Execute(sql);
      reference_.push_back(ref.ok() ? ResultChecksum(*ref) : 0);
      out.Add(ref.ok());
      for (Session* other : {row_mode, greedy}) {
        Result<QueryResult> r = other->Execute(sql);
        out.Add(ref.ok() && r.ok() && ResultChecksum(*r) == reference_.back());
      }
    }
    return out;
  }

  Stmt Next(int, uint64_t i) override {
    Stmt stmt;
    stmt.tmpl = static_cast<int>(i % queries_.size());
    stmt.sql = queries_[static_cast<size_t>(stmt.tmpl)];
    return stmt;
  }

  Result<QueryResult> Execute(int, Session* session, const Stmt& stmt) override {
    return session->Execute(stmt.sql);
  }

  bool Check(int, const Stmt& stmt, const QueryResult& r) override {
    if (ResultChecksum(r) != reference_[static_cast<size_t>(stmt.tmpl)]) return false;
    if (stmt.tmpl != kSortQuery) return true;
    for (size_t k = 1; k < r.rows.size(); ++k) {
      const Tuple& a = r.rows[k - 1];
      const Tuple& b = r.rows[k];
      const int64_t a_amount = a.At(2).AsInt(), b_amount = b.At(2).AsInt();
      if (a_amount > b_amount || (a_amount == b_amount && a.At(0).AsInt() > b.At(0).AsInt())) {
        return false;
      }
    }
    return true;
  }

  CheckCount FinalCheck(Database* db) override {
    CheckCount out;
    Result<QueryResult> r = db->Execute("SELECT count(*) FROM sales");
    out.Add(r.ok() && OnlyRow(*r, 1) && IntIs(r->rows[0].At(0), kSalesRows));
    return out;
  }

 private:
  Tuple SalesRow(int64_t id) const {
    return Tuple({Value::Int(id), Value::Int(Cell(seed_, id, 1, kStoreRows)),
                  Value::Int(Cell(seed_, id, 2, kCustomers)), Value::Int(1 + Cell(seed_, id, 3, 50)),
                  Value::Int(Cell(seed_, id, 4, 1000)), Value::Int(Cell(seed_, id, 5, 8)),
                  Value::String(Letters(Mix(seed_ + id), 16))});
  }

  const uint64_t seed_;
  std::vector<std::string> queries_;
  std::vector<uint64_t> reference_;
};

// --- join_plan: ad-hoc 8-12-relation joins, planned afresh every time ---------

class JoinPlanWorkload : public Workload {
 public:
  struct Family {
    relopt::JoinTopology topology;
    int relations;
    std::string prefix;
    std::string sql;        ///< BuildJoinWorkload's query text
    std::string anchor;     ///< first relation, carrier of the varying literal
    int64_t reference = 0;  ///< count(*) agreed by every execution mode
  };

  explicit JoinPlanWorkload(uint64_t seed) : seed_(seed) {
    using T = relopt::JoinTopology;
    const std::pair<T, int> shapes[] = {
        {T::kChain, 8}, {T::kChain, 12}, {T::kStar, 9}, {T::kRandom, 8}, {T::kRandom, 8},
    };
    for (const auto& [topology, relations] : shapes) {
      Family family;
      family.topology = topology;
      family.relations = relations;
      family.prefix = std::string("j") + static_cast<char>('a' + families_.size()) + "_";
      families_.push_back(family);
    }
  }

  const char* name() const override { return "join_plan"; }
  const char* why() const override {
    return "One session sends 8-12-relation chain, star and random joins over small indexed "
           "tables, each with a new literal so every statement is planned afresh: join "
           "enumeration dominates, which oltp_point's 3-relation joins never exercise.";
  }
  std::string sizes() const override {
    return "5 join families from BuildJoinWorkload (chain 8, chain 12, star 9, two random "
           "8), base 300 rows growing 1.15x per relation, star dimensions from 60 rows, index "
           "on every id; 1 session, closed loop, passes of 10 statements (4 chain 12, 3 star "
           "9, 1 each of the others), each statement with a distinct literal";
  }
  int num_sessions() const override { return 1; }
  int num_setups() const override { return 20; }
  size_t pool_pages() const override { return 1024; }
  uint64_t pass_length() const override { return std::size(kPass); }
  bool has_writes() const override { return false; }

  Status Setup(Database* db, SetupTimes* times) override {
    for (size_t f = 0; f < families_.size(); ++f) {
      Family& family = families_[f];
      relopt::JoinWorkloadSpec spec;
      spec.num_relations = family.relations;
      spec.base_rows = 300;
      spec.growth = 1.15;
      spec.dim_rows = 60;
      spec.seed = Mix(seed_ + f) % 1000000;
      spec.prefix = family.prefix;
      // BuildJoinWorkload analyzes each table as it loads it; that counts as load.
      RELOPT_RETURN_NOT_OK(Timed(&times->load_s, [&]() -> Status {
        RELOPT_ASSIGN_OR_RETURN(family.sql, relopt::BuildJoinWorkload(db, family.topology, spec));
        return Status::OK();
      }));
      const size_t from = family.sql.find("FROM ") + 5;
      family.anchor = family.sql.substr(from, family.sql.find(',', from) - from);
    }
    std::vector<std::string> tables = db->catalog()->TableNames();
    for (const std::string& t : tables) RELOPT_RETURN_NOT_OK(CreateIndex(db, t, "id", times));
    return Analyze(db, tables, times);
  }

  Status Prepare(int, Session*) override { return Status::OK(); }

  CheckCount CrossCheck(Database* db) override {
    CheckCount out;
    Session* row_mode = db->CreateSession();
    row_mode->set_vectorized(false);
    Session* greedy = db->CreateSession();
    greedy->options().optimizer.join.algorithm = relopt::JoinEnumAlgorithm::kGreedy;
    for (Family& family : families_) {
      const std::string sql = WithLiteral(family, 0);
      Result<QueryResult> ref = db->Execute(sql);
      const bool ok = ref.ok() && OnlyRow(*ref, 1) && !ref->rows[0].At(0).is_null();
      family.reference = ok ? ref->rows[0].At(0).AsInt() : -1;
      out.Add(ok);
      for (Session* other : {row_mode, greedy}) {
        Result<QueryResult> r = other->Execute(sql);
        out.Add(ok && r.ok() && OnlyRow(*r, 1) && IntIs(r->rows[0].At(0), family.reference));
      }
    }
    return out;
  }

  Stmt Next(int, uint64_t i) override {
    Stmt stmt;
    stmt.tmpl = kPass[i % std::size(kPass)];
    stmt.sql = WithLiteral(families_[static_cast<size_t>(stmt.tmpl)], i + 1);
    return stmt;
  }

  Result<QueryResult> Execute(int, Session* session, const Stmt& stmt) override {
    return session->Execute(stmt.sql);
  }

  bool Check(int, const Stmt& stmt, const QueryResult& r) override {
    const Tuple* row = OnlyRow(r, 1);
    return row && IntIs(row->At(0), families_[static_cast<size_t>(stmt.tmpl)].reference);
  }

  CheckCount FinalCheck(Database*) override { return {}; }

 private:
  /// The family's query plus `anchor.id < L` with L above every id: the
  /// result is unchanged, but each distinct L is a distinct plan-cache key.
  static std::string WithLiteral(const Family& family, uint64_t n) {
    return family.sql + " AND " + family.anchor + ".id < " + std::to_string(10000000 + n);
  }

  /// Family order within a pass. Enumeration cost orders the families
  /// random 8 < chain 8 < chain 12 < star 9, with random graphs varying the
  /// most from seed to seed; the weights put the median inside chain 12 and
  /// the tail inside star 9, whose join graphs do not depend on the seed.
  static constexpr int kPass[] = {3, 1, 2, 0, 1, 2, 4, 1, 2, 1};

  const uint64_t seed_;
  std::vector<Family> families_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "oltp_point") return std::make_unique<OltpWorkload>(seed, false);
  if (name == "oltp_mixed_rw") return std::make_unique<OltpWorkload>(seed, true);
  if (name == "olap_analytic") return std::make_unique<OlapWorkload>(seed);
  if (name == "join_plan") return std::make_unique<JoinPlanWorkload>(seed);
  return nullptr;
}

}  // namespace perfbench
