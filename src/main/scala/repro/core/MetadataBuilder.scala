package repro.core

import java.util.concurrent.CompletableFuture
import org.apache.spark.sql.DataFrame
import repro.layout.Layout

/** Builds [[LayoutMetadata]] (per-partition row counts, min/max, categorical
  * distinct codes) for a layout over a dataset, on the driver: every row is
  * routed by the layout's `bidOf` and aggregated per BID, in one place
  * ([[fromMatrixAsync]]).
  *
  *  - `fromMatrix` — over an in-memory (sample) matrix; used by the
  *    simulation so that exploring hundreds of candidate layouts stays
  *    cheap (the paper likewise estimates costs from metadata, not data).
  *  - `fromDataFrame` — over a Spark table, collected to the driver by
  *    [[DataMatrix.collect]] first; used by the physical Parquet path.
  * Both reject layouts of more than [[LayoutMetadata.MaxPartitions]]
  * partitions and categorical values that are not codes in
  * `[0, MaxDistinct)`.
  */
object MetadataBuilder {

  /** Domains up to this size keep distinct-value sets in the metadata (one
    * bit per code in a `Long`, so at most 64).
    */
  val MaxDistinct = 64

  private def checkPartitions(layout: Layout): Int = {
    val k = layout.numPartitions
    require(k <= LayoutMetadata.MaxPartitions,
      s"layout ${layout.id} has $k partitions: the metadata holds at most ${LayoutMetadata.MaxPartitions}")
    k
  }

  /** [[fromMatrix]] over `df` collected to the driver; a layout of too many
    * partitions is rejected before anything is collected.
    */
  def fromDataFrame(df: DataFrame, schema: TableSchema, layout: Layout): LayoutMetadata = {
    checkPartitions(layout)
    fromMatrix(DataMatrix.collect(df, schema), layout)
  }

  /** Row accessor for [[Layout.bidOf]] that is moved from row to row. */
  private final class RowCursor(cols: Array[Array[Double]]) extends (Int => Double) {
    var row = 0
    override def apply(j: Int): Double = cols(j)(row)
  }

  /** Route rows `[from, until)` of `m` into `bidOfRow`; returns their count per BID. */
  private def route(m: DataMatrix, layout: Layout, k: Int, from: Int, until: Int,
                    bidOfRow: Array[Int]): Array[Long] = {
    val counts = new Array[Long](k)
    val cursor = new RowCursor(m.cols)
    var i = from
    while (i < until) {
      cursor.row = i
      val bid = layout.bidOf(cursor)
      if (bid < 0 || bid >= k)
        throw new IllegalArgumentException(s"layout ${layout.id} routed row to BID $bid outside [0,$k)")
      bidOfRow(i) = bid
      counts(bid) += 1
      i += 1
    }
    counts
  }

  /** Per-BID min, max and (for a column with distinct sets, else null) code
    * mask of column `j`, over BIDs `0 until k`. For a column with distinct
    * sets only the masks are folded: min and max are a mask's lowest and
    * highest code. A code of -0.0 is code 0 and comes out as +0.0, which
    * compares equal to it. A BID without rows is not read.
    */
  private def aggregate(m: DataMatrix, j: Int, k: Int,
                        bidOfRow: Array[Int]): (Array[Double], Array[Double], Array[Long]) = {
    val col = m.cols(j)
    val n = col.length
    val c = m.schema(j)
    var i = 0
    if (c.keepsCodes) {
      val cs = new Array[Long](k)
      while (i < n) {
        cs(bidOfRow(i)) |= LayoutMetadata.codeBit(col(i), c.name)
        i += 1
      }
      (cs.map(java.lang.Long.numberOfTrailingZeros(_).toDouble),
        cs.map(mask => (63 - java.lang.Long.numberOfLeadingZeros(mask)).toDouble), cs)
    } else {
      val mn = Array.fill(k)(Double.PositiveInfinity)
      val mx = Array.fill(k)(Double.NegativeInfinity)
      while (i < n) {
        val v = col(i); val b = bidOfRow(i)
        if (v < mn(b)) mn(b) = v
        if (v > mx(b)) mx(b) = v
        i += 1
      }
      (mn, mx, null)
    }
  }

  /** Driver-local metadata as a task graph on the shared [[Pool]]: rows are
    * routed in contiguous chunks, one task each; once every chunk is routed,
    * each column is aggregated by one task; once every column is, the
    * metadata is assembled. No task waits on another: each phase is a stage
    * that depends on the previous phase's future. Counts, min, max and
    * code masks combine exactly, so the result does not depend on the pool
    * size. A rejected row or value fails the future with the same exception,
    * for the same first row, as a sequential pass would throw; a layout of
    * too many partitions is rejected at once, on the caller's thread.
    */
  def fromMatrixAsync(m: DataMatrix, layout: Layout): CompletableFuture[LayoutMetadata] = {
    val k = checkPartitions(layout)
    val n = m.numRows
    val bidOfRow = new Array[Int](n)
    val chunks = math.max(1, math.min(Pool.size, n))
    val routed = Pool.all((0 until chunks).map(c => Pool.async(
      route(m, layout, k, (c.toLong * n / chunks).toInt, ((c + 1).toLong * n / chunks).toInt, bidOfRow))))
    routed.thenCompose { perChunk =>
      val counts = new Array[Long](k)
      for (chunk <- perChunk; b <- 0 until k) counts(b) += chunk(b)
      // keep the non-empty BIDs
      val bids = (0 until k).filter(counts(_) > 0).toArray
      Pool.all((0 until m.schema.size).map(j => Pool.async(aggregate(m, j, k, bidOfRow)))).thenApply { perCol =>
        new LayoutMetadata(bids, bids.map(counts), m.schema.names,
          perCol.map { case (mn, _, _) => bids.map(mn) }.toArray,
          perCol.map { case (_, mx, _) => bids.map(mx) }.toArray,
          perCol.map { case (_, _, cs) => if (cs == null) null else bids.map(cs) }.toArray)
      }
    }
  }

  /** [[fromMatrixAsync]], waited for on the caller's thread (not a pool worker). */
  def fromMatrix(m: DataMatrix, layout: Layout): LayoutMetadata = Pool.await(fromMatrixAsync(m, layout))
}
