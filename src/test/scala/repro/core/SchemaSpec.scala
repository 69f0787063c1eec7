package repro.core

import repro.SparkSpec

class SchemaSpec extends SparkSpec {

  private val schema = TableSchema(IndexedSeq(
    ColumnDef("a"), ColumnDef("b", isCategorical = true, cardinality = 3)))

  test("indexOf resolves columns and rejects unknowns") {
    assert(schema.indexOf("a") == 0)
    assert(schema.indexOf("b") == 1)
    assertThrows[IllegalArgumentException](schema.indexOf("nope"))
  }

  test("matrix row accessor returns column values by index") {
    val m = DataMatrix(schema, Array(Array(1.0, 2.0), Array(10.0, 20.0)))
    assert(m.row(0)(0) == 1.0 && m.row(0)(1) == 10.0)
    assert(m.row(1)(0) == 2.0 && m.row(1)(1) == 20.0)
  }

  test("matrix rejects column-count mismatch") {
    assertThrows[IllegalArgumentException](DataMatrix(schema, Array(Array(1.0))))
  }

  test("sample returns itself when small enough") {
    val m = DataMatrix(schema, Array(Array(1.0, 2.0), Array(3.0, 4.0)))
    assert(m.sample(10, 1) eq m)
  }

  test("sample is deterministic and bounded") {
    val m = DataMatrix(schema, Array(Array.tabulate(100)(_.toDouble), Array.fill(100)(0.0)))
    val s1 = m.sample(10, 5)
    val s2 = m.sample(10, 5)
    assert(s1.numRows == 10)
    assert(s1.cols(0).toSeq == s2.cols(0).toSeq)
  }

  test("collect pulls an encoded DataFrame into a matrix in schema order") {
    import spark.implicits._
    val df = Seq((1.0, 0.0), (2.0, 1.0), (3.0, 2.0)).toDF("a", "b")
    val m = DataMatrix.collect(df, schema)
    assert(m.numRows == 3)
    assert(m.cols(0).sorted.toSeq == Seq(1.0, 2.0, 3.0))
    assert(m.cols(1).sorted.toSeq == Seq(0.0, 1.0, 2.0))
  }

  test("collect casts integer columns to double") {
    import spark.implicits._
    val df = Seq((1, 0), (2, 1)).toDF("a", "b")
    val m = DataMatrix.collect(df, schema)
    assert(m.cols(0).toSet == Set(1.0, 2.0))
  }

  test("collect selects only schema columns, ignoring extras") {
    import spark.implicits._
    val df = Seq((1.0, 0.0, "junk")).toDF("a", "b", "extra")
    val m = DataMatrix.collect(df, schema)
    assert(m.schema.size == 2)
  }
}
