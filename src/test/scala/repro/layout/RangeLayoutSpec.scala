package repro.layout

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{ColumnDef, DataMatrix, TableSchema}
import scala.collection.immutable.ArraySeq
import scala.util.Random

class RangeLayoutSpec extends AnyFunSuite {

  private val schema = TableSchema(IndexedSeq(ColumnDef("t"), ColumnDef("v")))

  test("routes values below the first bound to partition 0") {
    val l = RangeLayout("r", 0, ArraySeq(10.0, 20.0))
    assert(l.bidOfValue(-5) == 0)
    assert(l.bidOfValue(9.99) == 0)
  }

  test("bound value belongs to the right partition (lower-inclusive)") {
    val l = RangeLayout("r", 0, ArraySeq(10.0, 20.0))
    assert(l.bidOfValue(10.0) == 1)
    assert(l.bidOfValue(20.0) == 2)
  }

  test("routes values above the last bound to the last partition") {
    val l = RangeLayout("r", 0, ArraySeq(10.0, 20.0))
    assert(l.bidOfValue(1e9) == 2)
    assert(l.numPartitions == 3)
  }

  test("rejects unsorted bounds") {
    assertThrows[IllegalArgumentException](RangeLayout("r", 0, ArraySeq(20.0, 10.0)))
  }

  test("equi-depth bounds split a uniform sample near-evenly") {
    val values = Array.tabulate(1000)(_.toDouble)
    val l = RangeLayout.equiDepth("r", 0, values, 4)
    val counts = values.groupBy(l.bidOfValue).view.mapValues(_.length).toMap
    assert(counts.size == 4)
    assert(counts.values.forall(c => c > 150 && c < 350), s"counts=$counts")
  }

  test("equi-depth layouts built from the same values are ==") {
    val values = Array.tabulate(1000)(i => (i * 37 % 1000).toDouble)
    val a = RangeLayout.equiDepth("r", 0, values, 8)
    val b = RangeLayout.equiDepth("r", 0, values.clone(), 8)
    assert(a == b && a.hashCode == b.hashCode)
    assert(a != RangeLayout.equiDepth("r", 0, values, 4))
  }

  test("equi-depth collapses duplicate bounds on low-cardinality data") {
    val values = Array.fill(100)(5.0)
    val l = RangeLayout.equiDepth("r", 0, values, 8)
    assert(l.numPartitions >= 1)
    assert(values.forall(v => l.bidOfValue(v) < l.numPartitions))
  }

  test("bidOf reads the configured column index") {
    val l = RangeLayout("r", 1, ArraySeq(0.5))
    assert(l.bidOf(j => if (j == 1) 0.9 else 0.0) == 1)
    assert(l.bidOf(j => if (j == 1) 0.1 else 9.0) == 0)
  }

  test("every routed BID is within [0, numPartitions) (property)") {
    val rng = new Random(3)
    val l = RangeLayout("r", 0, ArraySeq(-100.0, 0.0, 100.0))
    for (_ <- 1 to 2000) {
      val v = (rng.nextDouble() - 0.5) * 2e6
      val bid = l.bidOfValue(v)
      assert(bid >= 0 && bid < l.numPartitions)
    }
  }

  test("routing is monotone in the value") {
    val l = RangeLayout("r", 0, ArraySeq(1.0, 2.0, 3.0))
    val bids = Seq(0.5, 1.5, 2.5, 3.5).map(l.bidOfValue)
    assert(bids == Seq(0, 1, 2, 3))
  }

  test("matrix routing matches scalar routing") {
    val m = DataMatrix(schema, Array(Array(1.0, 15.0, 25.0), Array(0.0, 0.0, 0.0)))
    val l = RangeLayout("r", 0, ArraySeq(10.0, 20.0))
    assert((0 until 3).map(i => l.bidOf(m.row(i))) == Seq(0, 1, 2))
  }
}
