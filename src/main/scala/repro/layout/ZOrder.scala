package repro.layout

import repro.core.{DataMatrix, Query}
import scala.collection.immutable.ArraySeq
import scala.collection.mutable

/** Workload-aware Z-order layout (paper §VI-A1): the dataset is split into
  * equal-sized partitions along the Z-order (Morton) curve over the top-3
  * most-queried columns of the recent window.
  *
  * Each column is quantile-bucketed into 16 buckets (bounds from the data
  * sample); the bucket indices are bit-interleaved into a Z-value, and
  * partition boundaries are equi-depth quantiles of the sample Z-values.
  *
  * @param colIdxs      schema indices of the Z-order columns (<= 3)
  * @param bucketBounds per column: ascending inner bucket bounds (2^b - 1)
  * @param zBounds      ascending inner partition bounds over Z-values
  */
final case class ZOrderLayout(id: String, colIdxs: IndexedSeq[Int],
                              bucketBounds: IndexedSeq[ArraySeq[Double]],
                              zBounds: ArraySeq[Long]) extends Layout {
  private val buckets = bucketBounds.map(_.toArray).toArray
  private val bounds = zBounds.toArray
  /** Bits per column in the Morton code: enough for every column's bucket index. */
  private val maxBits =
    buckets.map(b => 64 - java.lang.Long.numberOfLeadingZeros(b.length.toLong)).maxOption.getOrElse(0)

  override def numPartitions: Int = bounds.length + 1

  /** Interleave the bucket bits of each column into the Morton code. */
  def zValue(values: IndexedSeq[Double]): Long = {
    val nCols = colIdxs.length
    val bks = Array.tabulate(nCols)(c => RangeLayout.bin(buckets(c), values(c)))
    var z = 0L
    var bit = 0
    while (bit < maxBits) {
      var c = 0
      while (c < nCols) {
        z = (z << 1) | ((bks(c) >> (maxBits - 1 - bit)) & 1L)
        c += 1
      }
      bit += 1
    }
    z
  }

  def bidOfZ(z: Long): Int = {
    var lo = 0; var hi = bounds.length
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (z < bounds(mid)) hi = mid else lo = mid + 1
    }
    lo
  }

  override def bidOf(get: Int => Double): Int = bidOfZ(zValue(colIdxs.map(get)))
}

object ZOrder {

  /** Bucket resolution per column: 2^4 = 16 buckets. */
  private val BitsPerCol = 4

  /** Columns most frequently referenced by predicates in `queries` (top `n`). */
  def topQueriedColumns(queries: Seq[Query], n: Int): Seq[String] = {
    val freq = mutable.Map.empty[String, Int]
    for (q <- queries; p <- q.preds) freq(p.colName) = freq.getOrElse(p.colName, 0) + 1
    freq.toSeq.sortBy { case (c, f) => (-f, c) }.take(n).map(_._1)
  }

  /** Build a Z-order layout over the top-3 queried columns in the workload.
    *
    * @param sample     data sample for quantile bounds
    * @param queries    recent workload (drives the column choice)
    * @param k          target number of partitions
    */
  def build(sample: DataMatrix, queries: Seq[Query], k: Int, id: String): ZOrderLayout = {
    val schema = sample.schema
    val names = topQueriedColumns(queries, 3) match {
      case Nil => schema.names.take(3)           // no predicates — arbitrary fallback
      case cs  => cs
    }
    val idxs = names.map(schema.indexOf).toIndexedSeq
    val bounds = idxs.map(j =>
      ArraySeq.unsafeWrapArray(RangeLayout.quantiles(sample.cols(j).sorted, 1 << BitsPerCol)))
    // provisional layout (no partition bounds yet) to compute sample Z-values
    val proto = ZOrderLayout(id, idxs, bounds, ArraySeq.empty)
    val zs = Array.tabulate(sample.numRows)(i => proto.zValue(idxs.map(j => sample.cols(j)(i)))).sorted
    proto.copy(zBounds = ArraySeq.unsafeWrapArray(RangeLayout.quantiles(zs, k)))
  }
}
