package repro.core

import repro.SparkSpec
import repro.layout.{Layout, QdTree, RangeLayout, ZOrder}
import repro.spark.BidTable
import scala.collection.immutable.ArraySeq
import scala.util.Random

class MetadataBuilderSpec extends SparkSpec {

  private val schema = TableSchema(IndexedSeq(
    ColumnDef("a"),
    ColumnDef("c", isCategorical = true, cardinality = 4),
  ))

  private def matrix(n: Int, seed: Long = 1): DataMatrix = {
    val rng = new Random(seed)
    DataMatrix(schema, Array(
      Array.fill(n)(math.floor(rng.nextDouble() * 1000) / 10),
      Array.fill(n)(rng.nextInt(4).toDouble),
    ))
  }

  private def toDf(m: DataMatrix) = {
    import spark.implicits._
    (0 until m.numRows).map(i => (m.cols(0)(i), m.cols(1)(i))).toDF("a", "c")
  }

  test("fromMatrix: row counts cover the dataset exactly") {
    val m = matrix(500)
    val l = RangeLayout("r", 0, ArraySeq(25.0, 50.0, 75.0))
    val meta = MetadataBuilder.fromMatrix(m, l)
    assert(meta.totalRows == 500)
  }

  test("fromMatrix: min/max are exact per partition") {
    val m = DataMatrix(schema, Array(Array(1.0, 5.0, 30.0, 99.0), Array(0.0, 1.0, 2.0, 3.0)))
    val l = RangeLayout("r", 0, ArraySeq(20.0))
    val meta = MetadataBuilder.fromMatrix(m, l)
    val p0 = meta.partitions.find(_.bid == 0).get
    assert(p0.cols("a").min == 1.0 && p0.cols("a").max == 5.0)
    val p1 = meta.partitions.find(_.bid == 1).get
    assert(p1.cols("a").min == 30.0 && p1.cols("a").max == 99.0)
  }

  test("fromMatrix: distinct sets kept only for categorical columns") {
    val m = matrix(200)
    val l = RangeLayout("r", 0, ArraySeq(50.0))
    val meta = MetadataBuilder.fromMatrix(m, l)
    for (p <- meta.partitions) {
      assert(p.cols("a").distinct.isEmpty)
      assert(p.cols("c").distinct.nonEmpty)
      assert(p.cols("c").distinct.get.subsetOf(Set(0.0, 1.0, 2.0, 3.0)))
    }
  }

  test("fromMatrix: empty partitions are dropped") {
    val m = DataMatrix(schema, Array(Array(1.0, 2.0), Array(0.0, 1.0)))
    val l = RangeLayout("r", 0, ArraySeq(100.0, 200.0)) // partitions 1,2 empty
    val meta = MetadataBuilder.fromMatrix(m, l)
    assert(meta.partitions.map(_.bid) == IndexedSeq(0))
  }

  test("fromMatrix: routing outside [0,k) is rejected") {
    val m = DataMatrix(schema, Array(Array(1.0), Array(0.0)))
    val bad = new repro.layout.Layout {
      val id = "bad"; val numPartitions = 2
      def bidOf(get: Int => Double): Int = 7
    }
    assertThrows[IllegalArgumentException](MetadataBuilder.fromMatrix(m, bad))
  }

  /** A range layout of 65 partitions, one more than the metadata holds. */
  private val tooMany = RangeLayout("r65", 0, ArraySeq.tabulate(64)(_.toDouble))

  test("fromMatrix: more than 64 partitions are rejected") {
    assertThrows[IllegalArgumentException](MetadataBuilder.fromMatrix(matrix(100), tooMany))
  }

  test("fromDataFrame: more than 64 partitions are rejected") {
    assertThrows[IllegalArgumentException](MetadataBuilder.fromDataFrame(toDf(matrix(100)), schema, tooMany))
    // before anything is collected: this frame has none of the schema's columns
    val e = intercept[IllegalArgumentException](MetadataBuilder.fromDataFrame(spark.emptyDataFrame, schema, tooMany))
    assert(e.getMessage == "requirement failed: layout r65 has 65 partitions: the metadata holds at most 64")
  }

  /** Categorical column `c` holds a value that is not a code in [0, 64). */
  private def badCode(v: Double) = DataMatrix(schema, Array(Array(1.0, 2.0), Array(1.0, v)))

  test("fromMatrix: a categorical value that is not a code in [0, 64) is rejected") {
    val l = RangeLayout("r", 0, ArraySeq(50.0))
    for (v <- Seq(2.5, -1.0, 64.0))
      withClue(v)(assertThrows[IllegalArgumentException](MetadataBuilder.fromMatrix(badCode(v), l)))
  }

  test("fromDataFrame: a categorical value that is not a code in [0, 64) is rejected") {
    val l = RangeLayout("r", 0, ArraySeq(50.0))
    assertThrows[IllegalArgumentException](MetadataBuilder.fromDataFrame(toDf(badCode(2.5)), schema, l))
  }

  /** `fromDataFrame` over `m` gives `fromMatrix`'s metadata, of more than one
    * partition, and Spark's BID column routes every row of `m` as `bidOf` does.
    */
  private def assertSparkMatchesLocal(m: DataMatrix, l: Layout): Unit = {
    val local = MetadataBuilder.fromMatrix(m, l)
    assert(local.partitions.size > 1, l.id)
    val df = toDf(m)
    assert(MetadataBuilder.fromDataFrame(df, schema, l).partitions == local.partitions, l.id)
    val rows = df.withColumn("bid", BidTable.bidColumn(l, schema)).collect()
    assert(rows.length == m.numRows, l.id)
    for (r <- rows) assert(r.getInt(2) == l.bidOf(r.getDouble), s"${l.id}: $r")
  }

  private val rangeQueries = (0 until 20).map(i => Query(i, 0, Seq(RangePred("a", i * 5.0, i * 5.0 + 4))))

  test("fromDataFrame matches fromMatrix on identical data (range layout)") {
    assertSparkMatchesLocal(matrix(400, seed = 3), RangeLayout("r", 0, ArraySeq(25.0, 50.0, 75.0)))
  }

  test("fromDataFrame matches fromMatrix on a qd-tree layout") {
    val m = matrix(600, seed = 4)
    assertSparkMatchesLocal(m, QdTree.build(m, rangeQueries, 8, "t"))
  }

  test("fromDataFrame matches fromMatrix on a Z-order layout over both columns") {
    val m = matrix(600, seed = 4)
    val both = rangeQueries.map(q => q.copy(preds = q.preds :+ InPred("c", Set((q.id % 4).toDouble))))
    val z = ZOrder.build(m, both, 8, "z")
    assert(z.colIdxs.size == 2)
    assertSparkMatchesLocal(m, z)
  }

  test("skipping is conservative: skipped partitions contain no matching rows") {
    val m = matrix(1000, seed = 6)
    val qs = (0 until 15).map(i => Query(i, 0, Seq(
      RangePred("a", i * 6.0, i * 6.0 + 8), InPred("c", Set((i % 4).toDouble)))))
    val t = QdTree.build(m, qs, 8, "t")
    val meta = MetadataBuilder.fromMatrix(m, t)
    for (q <- qs) {
      val needed = meta.partitionsNeeded(q).toSet
      for (i <- 0 until m.numRows if q.matchesRow(schema, m.row(i))) {
        assert(needed.contains(t.bidOf(m.row(i))),
          s"row $i matches $q but its partition was skipped")
      }
    }
  }

  test("fractionAccessed is within [0,1] for arbitrary queries (property)") {
    val m = matrix(500, seed = 8)
    val l = RangeLayout("r", 0, ArraySeq(30.0, 60.0))
    val meta = MetadataBuilder.fromMatrix(m, l)
    val rng = new Random(2)
    for (_ <- 1 to 500) {
      val lo = rng.nextDouble() * 120 - 10
      val q = Query(0, 0, Seq(RangePred("a", lo, lo + rng.nextDouble() * 50)))
      val f = meta.fractionAccessed(q)
      assert(f >= 0.0 && f <= 1.0)
    }
  }

  test("fraction accessed upper-bounds the true matching fraction") {
    val m = matrix(800, seed = 9)
    val l = RangeLayout("r", 0, ArraySeq(20.0, 40.0, 60.0, 80.0))
    val meta = MetadataBuilder.fromMatrix(m, l)
    val rng = new Random(3)
    for (_ <- 1 to 100) {
      val lo = rng.nextDouble() * 100
      val q = Query(0, 0, Seq(RangePred("a", lo, lo + 10)))
      val trueFrac = (0 until m.numRows).count(i => q.matchesRow(schema, m.row(i))).toDouble / m.numRows
      assert(meta.fractionAccessed(q) >= trueFrac - 1e-12)
    }
  }

  /** The metadata of `layout` over `m` by one sequential fold over the rows. */
  private def sequentialFold(m: DataMatrix, layout: Layout): IndexedSeq[PartitionStats] =
    (0 until m.numRows).groupBy(i => layout.bidOf(m.row(i))).toIndexedSeq.sortBy(_._1).map { case (bid, rows) =>
      PartitionStats(bid, rows.size, m.schema.columns.zipWithIndex.map { case (c, j) =>
        val vs = rows.map(m.cols(j))
        c.name -> ColumnStats(vs.min, vs.max, if (c.isCategorical) Some(vs.toSet) else None)
      }.toMap)
    }

  test("fromMatrix on the pool equals a sequential fold, for any number of rows per chunk") {
    val sizes = Seq(0, 1, 2, 3, Pool.size - 1, Pool.size, 25 * Pool.size + 1, 1003).filter(_ >= 0).distinct
    for (n <- sizes) {
      val m = matrix(n, seed = n)
      val qs = (0 until 20).map(i => Query(i, 0, Seq(RangePred("a", i * 5.0, i * 5.0 + 4))))
      for (l <- Seq(RangeLayout("r", 0, ArraySeq.tabulate(7)(i => 12.5 * (i + 1))), QdTree.build(m, qs, 8, "t"))) {
        val meta = MetadataBuilder.fromMatrix(m, l)
        assert(meta.partitions == sequentialFold(m, l), s"$n rows, ${l.id}")
        assert(meta.totalRows == n)
      }
    }
  }

  test("fromMatrix takes a categorical column's min and max from its code mask, as a sequential fold finds them") {
    val cats = TableSchema(IndexedSeq(ColumnDef("a"), ColumnDef("c", isCategorical = true, cardinality = 4),
      ColumnDef("d", isCategorical = true, cardinality = 64)))
    val rng = new Random(11)
    for (n <- Seq(1, 2, 50, 1003)) {
      val m = DataMatrix(cats, Array(
        Array.fill(n)(rng.nextDouble() * 100),
        Array.fill(n)(if (rng.nextInt(5) == 0) -0.0 else rng.nextInt(4).toDouble),
        Array.fill(n)(rng.nextInt(64).toDouble)))
      val l = RangeLayout("r", 0, ArraySeq(10.0, 40.0, 41.0, 90.0))
      val fold = sequentialFold(m, l)
      // -0.0 is code 0 and comes out as +0.0, which compares equal to it
      assert(n < 50 || fold.exists(p => 1 / p.cols("c").min < 0), "some partition's fold min is -0.0")
      assert(MetadataBuilder.fromMatrix(m, l).partitions == fold, n)
    }
    assert(LayoutMetadata.codeBit(-0.0, "c") == 1L)
  }

  test("fromMatrix names the first rejected row in row order, and the pool serves the next call") {
    val n = 1000
    val m = DataMatrix(schema, Array(Array.tabulate(n)(_.toDouble), Array.fill(n)(1.0)))
    // rows from 500 on go to BID = row, outside [0, 2); several chunks fail
    val bad = new Layout {
      val id = "bad"; val numPartitions = 2
      def bidOf(get: Int => Double): Int = if (get(0) < 500) 0 else get(0).toInt
    }
    val e = intercept[IllegalArgumentException](MetadataBuilder.fromMatrix(m, bad))
    assert(e.getMessage == "layout bad routed row to BID 500 outside [0,2)")
    val l = RangeLayout("r", 0, ArraySeq(250.0, 750.0))
    assert(MetadataBuilder.fromMatrix(m, l).partitions == sequentialFold(m, l))
    val codes = m.cols(1).clone()
    codes(600) = 70.0; codes(900) = 2.5
    val e2 = intercept[IllegalArgumentException](MetadataBuilder.fromMatrix(DataMatrix(schema, Array(m.cols(0), codes)), l))
    assert(e2.getMessage == "value 70.0 in column c is not a code in [0, 64)")
    assert(MetadataBuilder.fromMatrix(m, l).partitions == sequentialFold(m, l))
  }
}
