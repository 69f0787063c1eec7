package repro

import org.apache.spark.sql.DataFrame

/** The oracle itself: it accepts equal results and rejects every kind of
  * difference, and it refuses tables it cannot load as `DOUBLE` columns.
  */
class OracleSpec extends SparkSpec {
  import spark.implicits._

  private lazy val t = Seq((1.0, 10.0), (2.0, 20.0), (3.0, 30.0)).toDF("x", "y")
  private val sql = "SELECT x, y FROM t"

  private def rejected(sparkDf: DataFrame, table: DataFrame = t): String =
    intercept[IllegalArgumentException](Oracle.assertEquivalent(sparkDf, sql, "t" -> table)).getMessage

  test("equal rows pass in any row and column order") {
    Oracle.assertEquivalent(Seq((30.0, 3.0), (10.0, 1.0), (20.0, 2.0)).toDF("y", "x"), sql, "t" -> t)
  }

  test("one wrong value fails") {
    assert(rejected(Seq((1.0, 10.0), (2.0, 20.0), (3.0, 31.0)).toDF("x", "y")).contains("result mismatch"))
  }

  test("a missing row fails") {
    assert(rejected(Seq((1.0, 10.0), (2.0, 20.0)).toDF("x", "y")).contains("result mismatch"))
  }

  test("an extra row fails") {
    assert(rejected(Seq((1.0, 10.0), (2.0, 20.0), (3.0, 30.0), (3.0, 30.0)).toDF("x", "y"))
      .contains("result mismatch"))
  }

  test("a column-set mismatch fails") {
    assert(rejected(Seq((1.0, 10.0), (2.0, 20.0), (3.0, 30.0)).toDF("x", "z")).contains("column mismatch"))
  }

  test("a table with a non-DOUBLE column is refused") {
    val ints = Seq((1, 10.0), (2, 20.0), (3, 30.0)).toDF("x", "y")
    assert(rejected(t, ints).contains("not DOUBLE"))
  }

  test("a table with a null is refused") {
    val nulls = Seq((1.0, Some(10.0)), (2.0, None), (3.0, Some(30.0))).toDF("x", "y")
    assert(rejected(t, nulls).contains("null"))
  }
}
