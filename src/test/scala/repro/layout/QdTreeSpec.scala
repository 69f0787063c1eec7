package repro.layout

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import scala.util.Random

class QdTreeSpec extends AnyFunSuite {

  private val schema = TableSchema(IndexedSeq(
    ColumnDef("a"),
    ColumnDef("b"),
    ColumnDef("c", isCategorical = true, cardinality = 4),
  ))

  /** Uniform random matrix: a ∈ [0,100), b ∈ [0,10), c ∈ {0..3}. */
  private def matrix(n: Int, seed: Long = 1): DataMatrix = {
    val rng = new Random(seed)
    DataMatrix(schema, Array(
      Array.fill(n)(rng.nextDouble() * 100),
      Array.fill(n)(rng.nextDouble() * 10),
      Array.fill(n)(rng.nextInt(4).toDouble),
    ))
  }

  private def rangeQ(lo: Double, hi: Double, id: Int = 0) =
    Query(id, 0, Seq(RangePred("a", lo, hi)))

  test("single partition when k = 1") {
    val t = QdTree.build(matrix(100), Seq(rangeQ(0, 10)), 1, "t")
    assert(t.numPartitions == 1)
    assert(t.root == QdLeaf(0))
  }

  test("produces at most k partitions") {
    val qs = (0 until 50).map(i => rangeQ(i.toDouble, i + 2.0, i))
    val t = QdTree.build(matrix(2000), qs, 8, "t")
    assert(t.numPartitions <= 8)
    assert(t.numPartitions > 1)
  }

  test("every row routes to a BID within range") {
    val m = matrix(1000)
    val qs = (0 until 30).map(i => rangeQ(i * 3.0, i * 3.0 + 5, i))
    val t = QdTree.build(m, qs, 16, "t")
    for (i <- 0 until m.numRows) {
      val bid = t.bidOf(m.row(i))
      assert(bid >= 0 && bid < t.numPartitions)
    }
  }

  test("cuts come from query predicate boundaries") {
    val m = matrix(1000)
    val t = QdTree.build(m, Seq(rangeQ(50, 100)), 2, "t")
    t.root match {
      case QdSplit(j, name, thr, _, _) =>
        assert(name == "a" && j == 0)
        assert(thr == 50.0 || thr == math.nextUp(100.0))
      case other => fail(s"expected a split, got $other")
    }
  }

  test("selective workload on one column yields skipping on that column") {
    val m = matrix(4000)
    val qs = (0 until 40).map { i => rangeQ((i % 10) * 10.0, (i % 10) * 10.0 + 9.99, i) }
    val t = QdTree.build(m, qs, 10, "t")
    val meta = MetadataBuilder.fromMatrix(m, t)
    val avgFrac = qs.map(meta.fractionAccessed).sum / qs.size
    assert(avgFrac < 0.4, s"qd-tree should skip most partitions; avg=$avgFrac")
  }

  test("beats a layout built for an unrelated column") {
    val m = matrix(4000)
    val aQueries = (0 until 40).map(i => rangeQ((i % 10) * 10.0, (i % 10) * 10.0 + 9.99, i))
    val bQueries = (0 until 40).map(i =>
      Query(i, 0, Seq(RangePred("b", (i % 10) * 1.0, (i % 10) * 1.0 + 0.99))))
    val forA = QdTree.build(m, aQueries, 10, "ta")
    val forB = QdTree.build(m, bQueries, 10, "tb")
    val metaA = MetadataBuilder.fromMatrix(m, forA)
    val metaB = MetadataBuilder.fromMatrix(m, forB)
    val costAonA = aQueries.map(metaA.fractionAccessed).sum
    val costAonB = aQueries.map(metaB.fractionAccessed).sum
    assert(costAonA < costAonB, s"workload-matched layout must win: $costAonA vs $costAonB")
  }

  test("respects the minimum leaf size") {
    val m = matrix(1000)
    val qs = (0 until 50).map(i => rangeQ(i * 2.0, i * 2.0 + 1, i))
    val t = QdTree.build(m, qs, 4, "t", minLeafFrac = 0.5)
    val meta = MetadataBuilder.fromMatrix(m, t)
    // min leaf = 0.5 * 1000/4 = 125 rows
    assert(meta.partitions.forall(_.rowCount >= 125))
  }

  test("handles categorical (InPred) workloads via distinct-set cuts") {
    val m = matrix(2000)
    val qs = (0 until 20).map(i => Query(i, 0, Seq(InPred("c", Set((i % 4).toDouble)))))
    val t = QdTree.build(m, qs, 4, "t")
    val meta = MetadataBuilder.fromMatrix(m, t)
    val avgFrac = qs.map(meta.fractionAccessed).sum / qs.size
    assert(avgFrac < 0.5, s"categorical splits should enable skipping; avg=$avgFrac")
  }

  test("no beneficial cut leaves the root unsplit") {
    val m = matrix(500)
    // query covers the entire domain: no cut can skip anything
    val t = QdTree.build(m, Seq(rangeQ(-1e9, 1e9)), 8, "t")
    assert(t.numPartitions == 1)
  }

  test("deterministic for identical inputs") {
    val m = matrix(1000, seed = 5)
    val qs = (0 until 20).map(i => rangeQ(i * 4.0, i * 4.0 + 8, i))
    val t1 = QdTree.build(m, qs, 8, "t")
    val t2 = QdTree.build(m, qs, 8, "t")
    assert(t1.root == t2.root)
  }

  test("bidColumn agrees with bidOf (via Catalyst evaluation)") {
    // exercised end-to-end in MetadataBuilderSpec (Spark); here check the
    // expression tree is well-formed for a routed sample
    val m = matrix(300)
    val qs = (0 until 10).map(i => rangeQ(i * 10.0, i * 10.0 + 5, i))
    val t = QdTree.build(m, qs, 4, "t")
    assert(t.bidColumn(schema) != null)
  }

  test("empty workload yields a single partition") {
    val t = QdTree.build(matrix(100), Nil, 8, "t")
    assert(t.numPartitions == 1)
  }
}
