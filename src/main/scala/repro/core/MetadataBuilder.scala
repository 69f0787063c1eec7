package repro.core

import org.apache.spark.sql.{DataFrame, functions => F}
import repro.layout.Layout

/** Builds [[LayoutMetadata]] (per-partition row counts, min/max, categorical
  * distinct codes) for a layout over a dataset.
  *
  * Two modes:
  *  - `fromDataFrame` — exact, via a Spark `groupBy(BID)` aggregation; used
  *    by the physical Parquet path and by correctness tests.
  *  - `fromMatrix` — driver-local over an in-memory (sample) matrix; used by
  *    the simulation so that exploring hundreds of candidate layouts stays
  *    cheap (the paper likewise estimates costs from metadata, not data).
  * The two are cross-checked on identical inputs in the test suite. Both
  * reject layouts of more than [[LayoutMetadata.MaxPartitions]] partitions
  * and categorical values that are not codes in `[0, MaxDistinct)`.
  */
object MetadataBuilder {

  /** Domains up to this size keep distinct-value sets in the metadata (one
    * bit per code in a `Long`, so at most 64).
    */
  val MaxDistinct = 64

  private def keepsCodes(c: ColumnDef): Boolean = c.isCategorical && c.cardinality <= MaxDistinct

  private def checkPartitions(layout: Layout): Int = {
    val k = layout.numPartitions
    require(k <= LayoutMetadata.MaxPartitions,
      s"layout ${layout.id} has $k partitions: the metadata holds at most ${LayoutMetadata.MaxPartitions}")
    k
  }

  def fromDataFrame(df: DataFrame, schema: TableSchema, layout: Layout): LayoutMetadata = {
    val k = checkPartitions(layout)
    val withBid = df.withColumn("__bid", layout.bidColumn(schema))
    val aggs = schema.columns.flatMap { c =>
      val base = Seq(F.min(c.name).as(s"min_${c.name}"), F.max(c.name).as(s"max_${c.name}"))
      if (keepsCodes(c)) base :+ F.collect_set(c.name).as(s"set_${c.name}") else base
    }
    val rows = withBid.groupBy("__bid")
      .agg(F.count(F.lit(1)).as("__cnt"), aggs: _*)
      .collect()
      .sortBy(_.getAs[Number]("__bid").intValue())
    val bids = rows.map(_.getAs[Number]("__bid").intValue())
    for (b <- bids) require(b >= 0 && b < k, s"layout ${layout.id} routed rows to BID $b outside [0,$k)")
    val cols = schema.columns
    new LayoutMetadata(bids, rows.map(_.getAs[Long]("__cnt")), schema.names,
      cols.map(c => rows.map(_.getAs[Number](s"min_${c.name}").doubleValue())).toArray,
      cols.map(c => rows.map(_.getAs[Number](s"max_${c.name}").doubleValue())).toArray,
      cols.map { c =>
        if (!keepsCodes(c)) null
        else rows.map(_.getAs[scala.collection.Seq[Any]](s"set_${c.name}").foldLeft(0L) { (m, v) =>
          m | LayoutMetadata.codeBit(v.asInstanceOf[Number].doubleValue(), c.name)
        })
      }.toArray)
  }

  /** Row accessor for [[Layout.bidOf]] that is moved from row to row. */
  private final class RowCursor(cols: Array[Array[Double]]) extends (Int => Double) {
    var row = 0
    override def apply(j: Int): Double = cols(j)(row)
  }

  def fromMatrix(m: DataMatrix, layout: Layout): LayoutMetadata = {
    val k = checkPartitions(layout)
    val n = m.numRows
    // route every row once
    val bidOfRow = new Array[Int](n)
    val counts = new Array[Long](k)
    val cursor = new RowCursor(m.cols)
    var i = 0
    while (i < n) {
      cursor.row = i
      val bid = layout.bidOf(cursor)
      if (bid < 0 || bid >= k)
        throw new IllegalArgumentException(s"layout ${layout.id} routed row to BID $bid outside [0,$k)")
      bidOfRow(i) = bid
      counts(bid) += 1
      i += 1
    }
    // aggregate each column in one sequential pass, then keep non-empty BIDs
    val bids = (0 until k).filter(counts(_) > 0).toArray
    val nCols = m.schema.size
    val mins = new Array[Array[Double]](nCols)
    val maxs = new Array[Array[Double]](nCols)
    val codes = new Array[Array[Long]](nCols)
    var j = 0
    while (j < nCols) {
      val col = m.cols(j)
      val mn = Array.fill(k)(Double.PositiveInfinity)
      val mx = Array.fill(k)(Double.NegativeInfinity)
      i = 0
      while (i < n) {
        val v = col(i); val b = bidOfRow(i)
        if (v < mn(b)) mn(b) = v
        if (v > mx(b)) mx(b) = v
        i += 1
      }
      mins(j) = bids.map(mn)
      maxs(j) = bids.map(mx)
      val c = m.schema(j)
      if (keepsCodes(c)) {
        val cs = new Array[Long](k)
        i = 0
        while (i < n) {
          cs(bidOfRow(i)) |= LayoutMetadata.codeBit(col(i), c.name)
          i += 1
        }
        codes(j) = bids.map(cs)
      }
      j += 1
    }
    new LayoutMetadata(bids, bids.map(counts), m.schema.names, mins, maxs, codes)
  }
}
