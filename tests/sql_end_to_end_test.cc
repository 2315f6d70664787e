// End-to-end SQL correctness: optimized plans must return exactly the rows a
// naive reference computation produces, across joins, filters, aggregates,
// ordering, and every optimizer configuration.
#include <gtest/gtest.h>

#include <algorithm>

#include "test_util.h"

namespace relopt {
namespace {

using tu::Sql;

class SqlEndToEndTest : public ::testing::Test {
 protected:
  SqlEndToEndTest() { tu::LoadEmpDept(&db_, 300, 10); }

  std::vector<std::string> Canon(const QueryResult& r) {
    std::vector<std::string> rows;
    for (const Tuple& t : r.rows) rows.push_back(t.ToString());
    std::sort(rows.begin(), rows.end());
    return rows;
  }

  /// Runs the query under the optimizer and under the naive planner and
  /// checks both agree.
  void CheckAgainstNaive(const std::string& sql) {
    db_.options().optimizer.naive = false;
    QueryResult optimized = Sql(&db_, sql);
    db_.options().optimizer.naive = true;
    QueryResult naive = Sql(&db_, sql);
    db_.options().optimizer.naive = false;
    EXPECT_EQ(Canon(optimized), Canon(naive)) << sql;
  }

  Database db_;
};

TEST(SqlArithmeticTest, Int64OverflowRaisesOutOfRangeInBothModes) {
  Database db;
  Sql(&db, "CREATE TABLE t (a INT)");
  Sql(&db, "INSERT INTO t VALUES (-9223372036854775807)");
  for (bool vectorized : {false, true}) {
    db.set_vectorized(vectorized);
    for (const char* sql : {"SELECT (a - 1) / -1 FROM t", "SELECT a * 9223372036854775807 FROM t",
                            "SELECT a - 2 FROM t", "SELECT -1 - a - a FROM t"}) {
      Result<QueryResult> r = db.Execute(sql);
      ASSERT_FALSE(r.ok()) << sql << " vectorized=" << vectorized;
      EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange) << sql << " vectorized=" << vectorized;
    }
    // INT64_MIN % -1 is 0, and in-range results are unchanged.
    EXPECT_EQ(tu::IntCell(Sql(&db, "SELECT (a - 1) % -1 FROM t")), 0);
    EXPECT_EQ(tu::IntCell(Sql(&db, "SELECT a / -1 FROM t")), 9223372036854775807);
    EXPECT_EQ(tu::IntCell(Sql(&db, "SELECT a - 1 FROM t")), INT64_MIN);
  }
}

TEST_F(SqlEndToEndTest, FilteredJoinAgreesWithNaive) {
  CheckAgainstNaive(
      "SELECT emp.name, dept.dname FROM emp, dept "
      "WHERE emp.dept_id = dept.id AND emp.salary > 3000");
}

TEST_F(SqlEndToEndTest, ThreeWayJoinAgreesWithNaive) {
  CheckAgainstNaive(
      "SELECT e.id FROM emp e, dept d, emp e2 "
      "WHERE e.dept_id = d.id AND e2.dept_id = d.id AND e.id < 20 AND e2.id < 10");
}

TEST_F(SqlEndToEndTest, AggregationAgreesWithNaive) {
  CheckAgainstNaive(
      "SELECT dept_id, count(*), sum(salary), min(salary), max(salary) "
      "FROM emp GROUP BY dept_id");
}

TEST_F(SqlEndToEndTest, NonEquiJoinAgreesWithNaive) {
  CheckAgainstNaive(
      "SELECT e.id, e2.id FROM emp e, emp e2 "
      "WHERE e.id < 12 AND e2.id < 12 AND e.salary < e2.salary");
}

TEST_F(SqlEndToEndTest, OrPredicateAgreesWithNaive) {
  CheckAgainstNaive("SELECT id FROM emp WHERE salary < 1500 OR salary > 5500 OR id = 100");
}

TEST_F(SqlEndToEndTest, JoinWithIndexesAgrees) {
  Sql(&db_, "CREATE INDEX idx_emp_dept ON emp (dept_id)");
  Sql(&db_, "CREATE INDEX idx_dept_id ON dept (id)");
  CheckAgainstNaive(
      "SELECT emp.name FROM emp, dept WHERE emp.dept_id = dept.id AND dept.id < 3");
}

TEST_F(SqlEndToEndTest, OrderByReturnsSortedRows) {
  QueryResult r = Sql(&db_, "SELECT salary FROM emp ORDER BY salary DESC LIMIT 50");
  ASSERT_EQ(r.rows.size(), 50u);
  for (size_t i = 1; i < r.rows.size(); ++i) {
    EXPECT_GE(r.rows[i - 1].At(0).AsInt(), r.rows[i].At(0).AsInt());
  }
}

TEST_F(SqlEndToEndTest, OrderByMultipleKeys) {
  QueryResult r =
      Sql(&db_, "SELECT dept_id, salary FROM emp ORDER BY dept_id ASC, salary DESC LIMIT 100");
  for (size_t i = 1; i < r.rows.size(); ++i) {
    int64_t d_prev = r.rows[i - 1].At(0).AsInt(), d = r.rows[i].At(0).AsInt();
    EXPECT_LE(d_prev, d);
    if (d_prev == d) {
      EXPECT_GE(r.rows[i - 1].At(1).AsInt(), r.rows[i].At(1).AsInt());
    }
  }
}

TEST_F(SqlEndToEndTest, BetweenAndInWork) {
  QueryResult r = Sql(&db_, "SELECT count(*) FROM emp WHERE id BETWEEN 10 AND 19");
  EXPECT_EQ(r.rows[0].At(0).AsInt(), 10);
  QueryResult r2 = Sql(&db_, "SELECT count(*) FROM emp WHERE dept_id IN (1, 3, 5)");
  EXPECT_EQ(r2.rows[0].At(0).AsInt(), 90);  // 30 per dept over 300 rows / 10 depts
}

TEST_F(SqlEndToEndTest, ScalarSubexpressionsInProjection) {
  QueryResult r = Sql(&db_, "SELECT id, salary * 2 + 1 FROM emp WHERE id = 5");
  ASSERT_EQ(r.rows.size(), 1u);
  QueryResult base = Sql(&db_, "SELECT salary FROM emp WHERE id = 5");
  EXPECT_EQ(r.rows[0].At(1).AsInt(), base.rows[0].At(0).AsInt() * 2 + 1);
}

TEST_F(SqlEndToEndTest, DistinctRemovesDuplicates) {
  QueryResult r = Sql(&db_, "SELECT DISTINCT dept_id FROM emp");
  EXPECT_EQ(r.rows.size(), 10u);  // 10 departments
  QueryResult all = Sql(&db_, "SELECT dept_id FROM emp");
  EXPECT_EQ(all.rows.size(), 300u);
}

TEST_F(SqlEndToEndTest, DistinctWithOrderBy) {
  QueryResult r = Sql(&db_, "SELECT DISTINCT dept_id FROM emp ORDER BY dept_id DESC");
  ASSERT_EQ(r.rows.size(), 10u);
  for (size_t i = 1; i < r.rows.size(); ++i) {
    EXPECT_GT(r.rows[i - 1].At(0).AsInt(), r.rows[i].At(0).AsInt());
  }
}

TEST_F(SqlEndToEndTest, DistinctMultiColumn) {
  Sql(&db_, "CREATE TABLE d (a INT, b INT)");
  Sql(&db_, "INSERT INTO d VALUES (1,1), (1,1), (1,2), (2,1), (2,1)");
  QueryResult r = Sql(&db_, "SELECT DISTINCT a, b FROM d");
  EXPECT_EQ(r.rows.size(), 3u);
}

TEST_F(SqlEndToEndTest, DistinctOverJoin) {
  QueryResult r = Sql(&db_,
                      "SELECT DISTINCT dname FROM emp, dept "
                      "WHERE emp.dept_id = dept.id AND emp.salary > 3000");
  EXPECT_GT(r.rows.size(), 0u);
  EXPECT_LE(r.rows.size(), 10u);
  std::vector<std::string> names = Canon(r);
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());  // all distinct
}

TEST_F(SqlEndToEndTest, DistinctWithLimit) {
  QueryResult r = Sql(&db_, "SELECT DISTINCT dept_id FROM emp ORDER BY dept_id LIMIT 3");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0].At(0).AsInt(), 0);
  EXPECT_EQ(r.rows[2].At(0).AsInt(), 2);
}

TEST_F(SqlEndToEndTest, DistinctTreatsNullsEqual) {
  Sql(&db_, "CREATE TABLE dn (x INT)");
  Sql(&db_, "INSERT INTO dn VALUES (NULL), (NULL), (1)");
  QueryResult r = Sql(&db_, "SELECT DISTINCT x FROM dn");
  EXPECT_EQ(r.rows.size(), 2u);
}

TEST_F(SqlEndToEndTest, DistinctOrderByUnselectedColumnRejected) {
  EXPECT_FALSE(db_.Execute("SELECT DISTINCT dept_id FROM emp ORDER BY salary").ok());
}

TEST_F(SqlEndToEndTest, SubqueriesAreCleanlyRejected) {
  // Derived tables are out of scope; the parser must fail, not crash.
  EXPECT_FALSE(db_.Execute("SELECT count(*) FROM (SELECT 1) sub").ok());
}

TEST_F(SqlEndToEndTest, JoinProducesConcatenatedSchema) {
  QueryResult r = Sql(&db_,
                      "SELECT * FROM dept, emp WHERE emp.dept_id = dept.id AND emp.id = 0");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.schema.NumColumns(), 6u);
  EXPECT_EQ(r.schema.ColumnAt(0).QualifiedName(), "dept.id");
  EXPECT_EQ(r.schema.ColumnAt(2).QualifiedName(), "emp.id");
}

TEST_F(SqlEndToEndTest, RepeatedExecutionIsStable) {
  const std::string q =
      "SELECT dept_id, count(*) FROM emp WHERE salary > 2000 GROUP BY dept_id ORDER BY dept_id";
  QueryResult first = Sql(&db_, q);
  for (int i = 0; i < 5; ++i) {
    QueryResult again = Sql(&db_, q);
    EXPECT_EQ(Canon(first), Canon(again));
  }
}

TEST_F(SqlEndToEndTest, AllJoinAlgorithmsAgreeOnRealQuery) {
  const std::string q =
      "SELECT count(*), sum(emp.salary) FROM emp, dept "
      "WHERE emp.dept_id = dept.id AND dept.id < 7";
  QueryResult reference = Sql(&db_, q);
  for (JoinEnumAlgorithm a :
       {JoinEnumAlgorithm::kDpLeftDeep, JoinEnumAlgorithm::kGreedy, JoinEnumAlgorithm::kRandom,
        JoinEnumAlgorithm::kWorst, JoinEnumAlgorithm::kExhaustive}) {
    db_.options().optimizer.join.algorithm = a;
    QueryResult r = Sql(&db_, q);
    EXPECT_EQ(Canon(reference), Canon(r)) << JoinEnumAlgorithmToString(a);
  }
}

}  // namespace
}  // namespace relopt
