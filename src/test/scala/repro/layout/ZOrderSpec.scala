package repro.layout

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import scala.collection.immutable.ArraySeq
import scala.util.Random

class ZOrderSpec extends AnyFunSuite {

  private val schema = TableSchema(IndexedSeq(
    ColumnDef("x"), ColumnDef("y"), ColumnDef("z"), ColumnDef("w")))

  private def matrix(n: Int, seed: Long = 1): DataMatrix = {
    val rng = new Random(seed)
    DataMatrix(schema, Array.fill(4)(Array.fill(n)(rng.nextDouble() * 100)))
  }

  private def q(col: String, lo: Double, hi: Double, id: Int = 0) =
    Query(id, 0, Seq(RangePred(col, lo, hi)))

  test("top queried columns are ranked by predicate frequency") {
    val qs = Seq(q("y", 0, 1), q("y", 0, 1), q("x", 0, 1), q("z", 0, 1), q("y", 0, 1))
    assert(ZOrder.topQueriedColumns(qs, 2) == Seq("y", "x"))
  }

  test("ties break deterministically by name") {
    val qs = Seq(q("x", 0, 1), q("y", 0, 1))
    assert(ZOrder.topQueriedColumns(qs, 2) == Seq("x", "y"))
  }

  test("build picks the top-3 queried columns") {
    val qs = (0 until 30).flatMap(i => Seq(q("x", i, i + 1, i), q("w", i, i + 1, i), q("y", i, i + 1, i)))
    val l = ZOrder.build(matrix(1000), qs, 8, "z")
    assert(l.colIdxs.map(schema(_).name).toSet == Set("x", "w", "y"))
  }

  test("partitions are near-equal-depth") {
    val m = matrix(4000)
    val qs = (0 until 30).map(i => q("x", i * 3.0, i * 3.0 + 5, i))
    val l = ZOrder.build(m, qs, 8, "z")
    val counts = (0 until m.numRows).groupBy(i => l.bidOf(m.row(i))).view.mapValues(_.size)
    assert(counts.values.forall(c => c > 4000 / 8 / 4), s"very skewed: ${counts.toMap}")
  }

  test("every row routes inside [0, numPartitions)") {
    val m = matrix(1000)
    val l = ZOrder.build(m, (0 until 10).map(i => q("x", i * 10.0, i * 10.0 + 9, i)), 8, "z")
    for (i <- 0 until m.numRows) {
      val bid = l.bidOf(m.row(i))
      assert(bid >= 0 && bid < l.numPartitions)
    }
  }

  test("zValue interleaves bits of bucket indices") {
    val bounds = IndexedSeq(ArraySeq(50.0), ArraySeq(50.0)) // 1 bit per column
    val l = ZOrderLayout("z", IndexedSeq(0, 1), bounds, ArraySeq.empty)
    assert(l.zValue(IndexedSeq(10.0, 10.0)) == 0L) // (0,0)
    assert(l.zValue(IndexedSeq(90.0, 10.0)) == 2L) // (1,0) → bit of col0 first
    assert(l.zValue(IndexedSeq(10.0, 90.0)) == 1L) // (0,1)
    assert(l.zValue(IndexedSeq(90.0, 90.0)) == 3L) // (1,1)
  }

  test("z-order clusters on each of its columns (skipping works for both)") {
    val m = matrix(4000)
    val qsX = (0 until 20).map(i => q("x", (i % 8) * 12.0, (i % 8) * 12.0 + 11, i))
    val qsY = (0 until 20).map(i => q("y", (i % 8) * 12.0, (i % 8) * 12.0 + 11, 100 + i))
    val l = ZOrder.build(m, qsX ++ qsY, 16, "z")
    val meta = MetadataBuilder.fromMatrix(m, l)
    val avgX = qsX.map(meta.fractionAccessed).sum / qsX.size
    val avgY = qsY.map(meta.fractionAccessed).sum / qsY.size
    assert(avgX < 0.9 && avgY < 0.9, s"z-order should skip on both dims: x=$avgX y=$avgY")
  }

  test("falls back to schema columns when the workload has no predicates") {
    val l = ZOrder.build(matrix(500), Nil, 4, "z")
    assert(l.colIdxs.nonEmpty)
    assert(l.numPartitions >= 1)
  }

  test("single-column workload degrades to range-like partitioning") {
    val m = matrix(2000)
    val qs = (0 until 40).map(i => q("x", (i % 10) * 10.0, (i % 10) * 10.0 + 9.99, i))
    val l = ZOrder.build(m, qs, 8, "z")
    val meta = MetadataBuilder.fromMatrix(m, l)
    val avg = qs.map(meta.fractionAccessed).sum / qs.size
    // x dominates the column choice; decile queries should skip well
    assert(avg < 0.6, s"avg fraction accessed = $avg")
  }

  test("deterministic for identical inputs") {
    val m = matrix(800, seed = 9)
    val qs = (0 until 10).map(i => q("x", i * 5.0, i * 5.0 + 4, i))
    val a = ZOrder.build(m, qs, 4, "z")
    val b = ZOrder.build(m, qs, 4, "z")
    assert(a ne b)
    assert(a == b && a.hashCode == b.hashCode)
  }
}
