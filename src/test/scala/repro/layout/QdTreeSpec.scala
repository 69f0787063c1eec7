package repro.layout

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import scala.collection.immutable.ArraySeq
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
      case QdSplit(j, thr, _, _) =>
        assert(schema(j).name == "a")
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

  test("empty workload yields a single partition") {
    val t = QdTree.build(matrix(100), Nil, 8, "t")
    assert(t.numPartitions == 1)
  }

  test("a categorical sample value that is not a code in [0, 64) is rejected as fromMatrix rejects it") {
    for (v <- Seq(2.5, -1.0, 64.0)) {
      val m = DataMatrix(schema, Array(Array(1.0, 60.0), Array(1.0, 2.0), Array(1.0, v)))
      val built = intercept[IllegalArgumentException](QdTree.build(m, Seq(rangeQ(0, 10)), 2, "t"))
      val meta = intercept[IllegalArgumentException](
        MetadataBuilder.fromMatrix(m, RangeLayout("r", 0, ArraySeq(50.0))))
      assert(built.getMessage == meta.getMessage, v)
    }
  }

  /** A column: numeric, categorical with distinct sets (2–25 codes), or
    * categorical over 100 codes (too many for distinct sets).
    */
  private def columnDefs(maxCols: Int): Gen[IndexedSeq[ColumnDef]] = for {
    n <- Gen.choose(1, maxCols)
    cards <- Gen.listOfN(n, Gen.frequency(2 -> Gen.const(0), 3 -> Gen.choose(2, 25), 1 -> Gen.const(100)))
  } yield cards.zipWithIndex.map { case (c, j) =>
    ColumnDef(s"c$j", isCategorical = c > 0, cardinality = c)
  }.toIndexedSeq

  /** Numeric values: continuous, integers (many ties), signed zeros and NaN. */
  private val numericValue: Gen[Double] = Gen.frequency(
    4 -> Gen.choose(0.0, 100.0),
    4 -> Gen.choose(0, 20).map(_.toDouble),
    1 -> Gen.oneOf(-0.0, 0.0, Double.NaN))

  private def value(c: ColumnDef): Gen[Double] =
    if (c.isCategorical) Gen.choose(0, c.cardinality - 1).map(_.toDouble) else numericValue

  private def rangePred(c: ColumnDef): Gen[Predicate] = {
    val top = if (c.isCategorical) c.cardinality.toDouble else 100.0
    val bound = Gen.frequency(
      4 -> Gen.choose(-1, top.toInt + 1).map(_.toDouble),
      2 -> Gen.choose(-1, top.toInt + 1).map(_ + 0.5),
      1 -> Gen.oneOf(Double.NegativeInfinity, Double.PositiveInfinity))
    for (a <- bound; b <- bound) yield RangePred(c.name, a min b, a max b)
  }

  /** IN lists of up to 12 values (more than 8 cut at the list's min and max),
    * with values no code equals among them.
    */
  private def inPred(c: ColumnDef): Gen[Predicate] = {
    val v = Gen.frequency(8 -> value(c).suchThat(!_.isNaN), 1 -> Gen.oneOf(-1.0, 2.5, 64.0, 1e9))
    Gen.choose(1, 12).flatMap(n => Gen.containerOfN[Set, Double](n, v)).suchThat(_.nonEmpty).map(InPred(c.name, _))
  }

  /** A workload of `size` queries over `cols`: ranges only, mostly IN lists, or mixed. */
  private def workload(cols: Seq[ColumnDef], size: Gen[Int]): Gen[Seq[Query]] = for {
    inShare <- Gen.oneOf(0, 0, 9, 5)
    n <- size
    qs <- Gen.listOfN(n, Gen.choose(1, 3).flatMap(np => Gen.listOfN(np, for {
      c <- Gen.oneOf(cols)
      p <- Gen.frequency(10 - inShare -> rangePred(c), inShare -> inPred(c))
    } yield p)))
  } yield qs.zipWithIndex.map { case (ps, i) => Query(i, 0, ps) }

  /** Up to 60 queries, or none. */
  private val smallWorkload: Gen[Int] = Gen.frequency(1 -> Gen.const(0), 9 -> Gen.choose(1, 60))

  /** Checks that [[QdTree.build]] gives [[QdTreeReference.build]]'s layout on
    * `tests` cases of `cols` columns, a workload over those `reads(cols)`
    * returns, and up to `maxRows` rows.
    */
  private def checkAgainstReference(cols: Gen[IndexedSeq[ColumnDef]], reads: IndexedSeq[ColumnDef] => Gen[Seq[ColumnDef]],
                                    size: Gen[Int], maxRows: Int, tests: Int, seed: Long): Unit = {
    val cases = for {
      cs <- cols
      read <- reads(cs)
      k <- Gen.frequency(1 -> Gen.const(1), 1 -> Gen.const(64), 6 -> Gen.choose(1, 64))
      rows <- Gen.frequency(1 -> Gen.choose(0, k), 4 -> Gen.choose(k, maxRows))
      data <- Gen.sequence[List[Array[Double]], Array[Double]](cs.map(c => Gen.listOfN(rows, value(c)).map(_.toArray)))
      qs <- workload(read, size)
      minLeafFrac <- Gen.oneOf(0.05, 0.2, 0.5)
    } yield (DataMatrix(TableSchema(cs), data.toArray), qs, k, minLeafFrac)
    val prop = Prop.forAllNoShrink(cases) { case (m, qs, k, minLeafFrac) =>
      val reference = QdTreeReference.build(m, qs, k, "t", minLeafFrac = minLeafFrac)
      // the first build sorts the sample's read columns, the second reads their cached orders
      for (_ <- 1 to 2)
        assert(QdTree.build(m, qs, k, "t", minLeafFrac = minLeafFrac) == reference,
          (m.schema, m.cols.map(_.toSeq).toSeq, qs, k, minLeafFrac))
      // and neither build changed a cached order
      val fresh = DataMatrix(m.schema, m.cols)
      for (j <- 0 until m.schema.size) assert(m.orderOf(j).toSeq == fresh.orderOf(j).toSeq)
      true
    }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(tests).withInitialSeed(Seed(seed)), prop)
    assert(res.passed, res.status)
  }

  test("the presorted build gives the reference build's layout (property)") {
    checkAgainstReference(columnDefs(5), Gen.const(_), smallWorkload, maxRows = 400, tests = 400, seed = 17)
  }

  test("the reference build's layout when the workload reads only some columns (property)") {
    // unread numeric and categorical columns are neither sorted nor cut
    checkAgainstReference(columnDefs(8), cs => Gen.atLeastOne(cs).map(_.toSeq), smallWorkload,
      maxRows = 400, tests = 300, seed = 23)
  }

  test("the reference build's layout for workloads of 500 to 2000 queries (property)") {
    checkAgainstReference(columnDefs(3), Gen.const(_), Gen.choose(500, 2000), maxRows = 1000, tests = 15, seed = 29)
  }

  test("a child whose read column is all NaN re-tests the queries its parent skipped") {
    // b is NaN wherever a < 50, so the cut a < 50 leaves the left child with
    // no b bounds: the query on b skips the root but not that child, where
    // its predicate on a earns the cut a < nextUp(9).
    val s2 = TableSchema(IndexedSeq(ColumnDef("a"), ColumnDef("b")))
    val a = Array.tabulate(400)(i => (i % 100).toDouble)
    val m = DataMatrix(s2, Array(a, a.map(v => if (v < 50) Double.NaN else v)))
    val qs = (0 until 8).map(i => Query(i, 0, Seq(RangePred("a", 50, 99)))) :+
      Query(8, 0, Seq(RangePred("b", -10, -5), RangePred("a", 0, 9)))
    val t = QdTree.build(m, qs, 3, "t", minLeafFrac = 0.05)
    assert(t == QdTreeReference.build(m, qs, 3, "t", minLeafFrac = 0.05))
    assert(t.root == QdSplit(0, 50.0, QdSplit(0, math.nextUp(9.0), QdLeaf(0), QdLeaf(1)), QdLeaf(2)))
  }
}
