package repro.core

import repro.SparkSpec

class SchemaSpec extends SparkSpec {

  private val schema = TableSchema(IndexedSeq(
    ColumnDef("a"), ColumnDef("b", isCategorical = true, cardinality = 3)))

  test("indexOf resolves columns and rejects unknowns") {
    assert(schema.indexOf("a") == 0)
    assert(schema.indexOf("b") == 1)
    val e = intercept[IllegalArgumentException](schema.indexOf("nope"))
    assert(e.getMessage == s"unknown column nope in ${schema.names}")
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

  test("order is each column's argsort in java.util.Arrays.sort order, ties by row id, computed once") {
    val rng = new scala.util.Random(7)
    val specials = Array(Double.NaN, -0.0, 0.0, Double.NegativeInfinity, Double.PositiveInfinity)
    for (rows <- Seq(0, 1, 2, 17, 500)) {
      val mixed = Array.fill(rows)(
        if (rng.nextInt(3) == 0) specials(rng.nextInt(specials.length)) else rng.nextInt(10) - 4.5)
      val m = DataMatrix(schema, Array(mixed, Array.fill(rows)(1.0)))
      for (j <- 0 until 2) {
        val col = m.cols(j); val ord = m.orderOf(j)
        val sorted = col.clone()
        java.util.Arrays.sort(sorted)
        assert(ord.sorted.toSeq == (0 until rows), "a permutation of the rows")
        assert(ord.map(i => java.lang.Double.doubleToLongBits(col(i))).toSeq ==
          sorted.map(java.lang.Double.doubleToLongBits).toSeq, "in the sort's order, -0.0 before 0.0, NaN last")
        for (i <- 1 until rows if java.lang.Double.compare(col(ord(i - 1)), col(ord(i))) == 0)
          assert(ord(i - 1) < ord(i), "ties by row id")
        assert(m.orderOf(j) eq ord)
      }
    }
  }

  test("concurrent first calls of orderOf return one order per column") {
    val rng = new scala.util.Random(11)
    val wide = TableSchema((0 until 3).map(j => ColumnDef(s"c$j")))
    for (_ <- 1 to 20) {
      val m = DataMatrix(wide, Array.fill(3)(Array.fill(2000)(rng.nextInt(50).toDouble)))
      val orders = Pool.await(Pool.all((0 until 4 * wide.size).map(i => Pool.async(m.orderOf(i % wide.size)))))
      for (i <- orders.indices) {
        val j = i % wide.size
        assert(orders(i) eq m.orderOf(j), "every caller gets the published order")
        assert(orders(i).toSeq == DataMatrix(wide, m.cols).orderOf(j).toSeq)
      }
    }
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
