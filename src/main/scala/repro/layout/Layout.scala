package repro.layout

import scala.collection.immutable.ArraySeq
import scala.reflect.ClassTag

/** A data layout: a total mapping of rows to partition ids (BIDs).
  *
  * Layouts are pure routing functions; they carry no data. `bidOf` is the
  * only routing: the sample-based generators, the metadata builder and
  * Spark's BID column (`BidTable.bidColumn`) all call it.
  * Each layout of this package is a case class whose fields compare by
  * content, so two layouts built from the same inputs are `==`.
  */
trait Layout {
  /** Stable identifier; doubles as the MTS state id. */
  def id: String

  /** Number of partitions this layout can produce (BIDs are 0 until this). */
  def numPartitions: Int

  /** Route one row; `get` maps a schema column index to its encoded value. */
  def bidOf(get: Int => Double): Int
}

/** Equi-depth range partitioning on a single column — the paper's default
  * "partition by arrival time / sort column" layout (§IV-A).
  *
  * @param colIdx      schema index of the partitioning column
  * @param innerBounds ascending inner boundaries; BID = number of bounds
  *                    at or below the value, so k = innerBounds.length + 1
  */
final case class RangeLayout(id: String, colIdx: Int, innerBounds: ArraySeq[Double]) extends Layout {
  private val bounds = innerBounds.toArray
  require(bounds.sameElements(bounds.sorted), "bounds must be ascending")
  override def numPartitions: Int = bounds.length + 1

  override def bidOf(get: Int => Double): Int = bidOfValue(get(colIdx))

  def bidOfValue(v: Double): Int = RangeLayout.bin(bounds, v)
}

object RangeLayout {
  /** Build an equi-depth range layout on column `colIdx` from a sample of its values. */
  def equiDepth(id: String, colIdx: Int, values: Array[Double], k: Int): RangeLayout = {
    require(k >= 1, "need at least one partition")
    require(values.nonEmpty, "need sample values to derive bounds")
    RangeLayout(id, colIdx, ArraySeq.unsafeWrapArray(quantiles(values.sorted, k)))
  }

  /** The distinct inner `k`-quantiles of ascending `sorted`. */
  private[layout] def quantiles[T: ClassTag](sorted: Array[T], k: Int): Array[T] =
    Array.tabulate(k - 1) { i =>
      sorted(math.min(sorted.length - 1, ((i + 1).toLong * sorted.length / k).toInt))
    }.distinct

  /** The number of ascending `bounds` at or below `v` (binary search). */
  private[layout] def bin(bounds: Array[Double], v: Double): Int = {
    var lo = 0; var hi = bounds.length
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (v < bounds(mid)) hi = mid else lo = mid + 1
    }
    lo
  }
}
