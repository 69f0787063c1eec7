package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite

/** The compiled bitmask metadata answers every query exactly as the
  * per-partition reference semantics ([[ColumnStats.canSkip]]) does.
  */
class LayoutMetadataSpec extends AnyFunSuite {

  /** Column kinds: numeric, categorical with distinct sets, categorical without. */
  private sealed trait Kind
  private case object Numeric extends Kind
  private case object WithSet extends Kind
  private case object NoSet extends Kind

  /** Codes, mostly from a small domain so that sets and IN-lists overlap. */
  private val codes: Gen[Double] =
    Gen.frequency(3 -> Gen.choose(0, 7), 1 -> Gen.choose(0, 63)).map(_.toDouble)

  /** Range bounds: integers, non-integers, infinities and values outside [0, 63]. */
  private val bound: Gen[Double] = Gen.frequency(
    4 -> codes,
    2 -> Gen.choose(0, 63).map(_ + 0.5),
    2 -> Gen.choose(-20.0, 90.0),
    1 -> Gen.oneOf(Double.NegativeInfinity, Double.PositiveInfinity),
    1 -> Gen.oneOf(-1.0, -0.5, 63.5, 64.0, 100.0))

  /** IN-list values: codes (hits and misses) plus values no code can equal. */
  private val inValue: Gen[Double] = Gen.frequency(
    6 -> codes,
    1 -> Gen.oneOf(-1.0, 2.5, 64.0, 1e9))

  private def columnStats(kind: Kind): Gen[ColumnStats] = kind match {
    case Numeric =>
      for (a <- bound.suchThat(!_.isInfinite); w <- Gen.choose(0.0, 30.0)) yield ColumnStats(a, a + w, None)
    case NoSet =>
      for (a <- codes; b <- codes) yield ColumnStats(a min b, a max b, None)
    case WithSet =>
      // small sets leave gaps; an empty set occurs too
      val set = Gen.frequency(4 -> Gen.choose(0, 6), 1 -> Gen.choose(7, 64))
        .flatMap(n => Gen.containerOfN[Set, Double](n, codes))
      for (vs <- set; a <- codes) yield
        if (vs.isEmpty) ColumnStats(a, a, Some(vs)) else ColumnStats(vs.min, vs.max, Some(vs))
  }

  private val metadata: Gen[IndexedSeq[PartitionStats]] = for {
    k <- Gen.frequency(1 -> Gen.const(64), 4 -> Gen.choose(1, 64))
    kinds <- Gen.listOfN(4, Gen.oneOf(Numeric, WithSet, NoSet))
    picked <- Gen.pick(k, 0 until 200)
    shuffle <- Gen.long
    bids = new scala.util.Random(shuffle).shuffle(picked.toList) // distinct, in no particular order
    parts <- Gen.sequence[List[PartitionStats], PartitionStats](bids.map { bid =>
      for {
        rows <- Gen.frequency(1 -> Gen.const(0L), 9 -> Gen.choose(1L, 100000L))
        stats <- Gen.sequence[List[ColumnStats], ColumnStats](kinds.map(columnStats))
      } yield PartitionStats(bid, rows, stats.zipWithIndex.map { case (s, j) => s"c$j" -> s }.toMap)
    })
  } yield parts.toIndexedSeq

  private val predicate: Gen[Predicate] = for {
    col <- Gen.frequency(9 -> Gen.choose(0, 3).map(j => s"c$j"), 1 -> Gen.const("unknown"))
    p <- Gen.oneOf(
      for (a <- bound; b <- bound) yield RangePred(col, a min b, a max b),
      Gen.nonEmptyContainerOf[Set, Double](inValue).map(InPred(col, _)))
  } yield p

  private val query: Gen[Query] =
    Gen.choose(1, 4).flatMap(n => Gen.listOfN(n, predicate)).map(Query(0, 0, _))

  /** Today's semantics, straight from the per-partition statistics. */
  private def referenceNeeded(parts: IndexedSeq[PartitionStats], q: Query): IndexedSeq[PartitionStats] =
    parts.filterNot(p => q.preds.exists(pred => p.cols.get(pred.colName).exists(_.canSkip(pred))))

  test("bitmask answers equal the reference semantics bit for bit (property)") {
    val prop = Prop.forAllNoShrink(metadata, Gen.listOfN(20, query)) { (parts, qs) =>
      val meta = LayoutMetadata(parts)
      val total = parts.map(_.rowCount).sum
      assert(meta.partitions == parts)
      assert(meta.totalRows == total)
      for (q <- qs) {
        val ref = referenceNeeded(parts, q)
        assert(meta.partitionsNeeded(q) == ref.map(_.bid), q)
        val frac = if (total == 0) 0.0 else ref.map(_.rowCount).sum.toDouble / total
        assert(meta.fractionAccessed(q) == frac, q)
        assert(meta.fractionPartitionsSkipped(q) == (parts.size - ref.size).toDouble / parts.size, q)
      }
      true
    }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(300).withInitialSeed(Seed(11)), prop)
    assert(res.passed, res.status)
  }

  test("all 64 partitions can be skipped and read") {
    val parts = (0 until 64).map(i => PartitionStats(i, 1, Map("a" -> ColumnStats(i, i, None))))
    val meta = LayoutMetadata(parts)
    assert(meta.partitionsNeeded(Query(0, 0, Seq(RangePred("a", 0, 63)))) == (0 until 64))
    assert(meta.partitionsNeeded(Query(0, 0, Seq(RangePred("a", 63, 63)))) == Seq(63))
    assert(meta.fractionAccessed(Query(0, 0, Seq(RangePred("a", 64, 70)))) == 0.0)
  }

  test("more than 64 partitions are rejected") {
    val parts = (0 until 65).map(i => PartitionStats(i, 1, Map("a" -> ColumnStats(i, i, None))))
    assertThrows[IllegalArgumentException](LayoutMetadata(parts))
  }

  test("a distinct value that is not a code in [0, 64) is rejected") {
    for (bad <- Seq(2.5, -1.0, 64.0, Double.NaN)) {
      val parts = IndexedSeq(PartitionStats(0, 1, Map("c" -> ColumnStats(0, 70, Some(Set(1.0, bad))))))
      withClue(bad)(assertThrows[IllegalArgumentException](LayoutMetadata(parts)))
    }
  }

  test("partitions with differing column sets are rejected") {
    val parts = IndexedSeq(
      PartitionStats(0, 1, Map("a" -> ColumnStats(0, 1, None))),
      PartitionStats(1, 1, Map("a" -> ColumnStats(0, 1, None), "b" -> ColumnStats(0, 1, None))))
    assertThrows[IllegalArgumentException](LayoutMetadata(parts))
  }

  test("a column with distinct sets in only some partitions is rejected") {
    val parts = IndexedSeq(
      PartitionStats(0, 1, Map("c" -> ColumnStats(0, 1, Some(Set(0.0, 1.0))))),
      PartitionStats(1, 1, Map("c" -> ColumnStats(0, 1, None))))
    assertThrows[IllegalArgumentException](LayoutMetadata(parts))
  }
}
