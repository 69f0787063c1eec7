package repro.core

import repro.layout.Layout

/** Synthetic layout states with *controllable* query costs for pure unit
  * tests of the decision algorithms.
  *
  * Model: a 100-row table with one categorical column `x` ∈ {0..9} (10 rows
  * per value). A state "specialized for S ⊆ {0..9}" stores each value of S
  * in its own partition and everything else in one big partition. For the
  * point query x = v:
  *   cost = 0.1                    if v ∈ S  (only v's partition is read)
  *   cost = (100 − 10·|S|) / 100   otherwise (the big partition is read)
  */
object TestLayouts {

  val schema: TableSchema = TableSchema(IndexedSeq(
    ColumnDef("x", isCategorical = true, cardinality = 10)))

  /** A routing-irrelevant placeholder layout (strategy tests only consult
    * metadata, never routing).
    */
  final case class FakeLayout(id: String, numPartitions: Int) extends Layout {
    override def bidOf(get: Int => Double): Int = 0
  }

  def state(id: String, goodFor: Set[Int]): LayoutState = {
    val specialized = goodFor.toSeq.sorted.zipWithIndex.map { case (v, i) =>
      PartitionStats(i, 10, Map("x" -> ColumnStats(v, v, Some(Set(v.toDouble)))))
    }
    val rest = (0 until 10).filterNot(goodFor).map(_.toDouble).toSet
    val big =
      if (rest.isEmpty) Nil
      else Seq(PartitionStats(goodFor.size, 100L - 10 * goodFor.size,
        Map("x" -> ColumnStats(rest.min, rest.max, Some(rest)))))
    LayoutState(FakeLayout(id, goodFor.size + big.size),
      LayoutMetadata((specialized ++ big).toIndexedSeq))
  }

  /** Point query x = v. */
  def query(v: Int, id: Int = 0): Query = Query(id, v, Seq(InPred("x", Set(v.toDouble))))

  /** Expected cost of `query(v)` under `state(_, goodFor)`. */
  def expectedCost(goodFor: Set[Int], v: Int): Double =
    if (goodFor.contains(v)) 0.1 else (100.0 - 10 * goodFor.size) / 100.0
}
