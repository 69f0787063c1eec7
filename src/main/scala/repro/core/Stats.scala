package repro.core

import scala.collection.immutable.ArraySeq

/** Per-partition statistics for one column.
  *
  * @param min      minimum encoded value in the partition
  * @param max      maximum encoded value in the partition
  * @param distinct distinct encoded values, kept only for categorical
  *                 columns with small domains (paper §VI-A1: "range of
  *                 values (or distinct values for categorical columns)")
  */
final case class ColumnStats(min: Double, max: Double, distinct: Option[Set[Double]]) {
  /** Conservative test: can a partition with these stats be skipped for `p`?
    * Returns true only if provably no row in the partition satisfies `p`.
    * This is the reference semantics that [[LayoutMetadata]] compiles.
    */
  def canSkip(p: Predicate): Boolean = p match {
    case RangePred(_, lo, hi) =>
      hi < min || lo > max || distinct.exists(d => !d.exists(v => v >= lo && v <= hi))
    case InPred(_, values) =>
      distinct match {
        case Some(d) => d.intersect(values).isEmpty
        case None    => values.forall(v => v < min || v > max)
      }
  }
}

/** Statistics for one partition (one BID) of a layout. */
final case class PartitionStats(bid: Int, rowCount: Long, cols: Map[String, ColumnStats])

/** Partition-level metadata for a whole layout — everything OREO needs to
  * estimate query costs without touching the data (`eval_skipped` in §III-B).
  *
  * The metadata is stored column-major: per column, one `min` and one `max`
  * array over the partitions, and for categorical columns one `Long` mask of
  * distinct codes per partition. Partition `i` (in storage order) is bit `i`
  * of a partition mask, so a query is answered by AND-ing one mask per
  * predicate of the partitions it cannot skip (bit-vector skipping, after
  * Sun et al., SIGMOD 2014). Hence at most 64 partitions and codes in
  * `[0, MetadataBuilder.MaxDistinct)`. Every answer equals the one
  * [[ColumnStats.canSkip]] gives on the [[partitions]] view.
  *
  * @param bids    BID of each partition
  * @param counts  row count of each partition
  * @param columns column names; `mins(j)`, `maxs(j)`, `codes(j)` belong to `columns(j)`
  * @param codes   `codes(j)(i)` has bit `c` set iff code `c` occurs in partition
  *                `i`; `codes(j)` is null for a column without distinct sets
  */
final class LayoutMetadata private[core] (bids: Array[Int], counts: Array[Long],
                                          columns: IndexedSeq[String],
                                          mins: Array[Array[Double]], maxs: Array[Array[Double]],
                                          codes: Array[Array[Long]]) {
  import LayoutMetadata._
  require(bids.length <= MaxPartitions,
    s"${bids.length} partitions: the metadata holds at most $MaxPartitions")

  private val n = bids.length
  private val colIndex = new java.util.HashMap[String, Integer](2 * columns.size)
  columns.indices.foreach(j => colIndex.put(columns(j), j))
  private val allParts: Long = if (n == 0) 0L else -1L >>> (64 - n)

  val totalRows: Long = counts.sum

  /** Per-partition view of the metadata, derived on each call. */
  def partitions: IndexedSeq[PartitionStats] = (0 until n).map { i =>
    PartitionStats(bids(i), counts(i), columns.indices.map { j =>
      columns(j) -> ColumnStats(mins(j)(i), maxs(j)(i), Option(codes(j)).map(c => codeSet(c(i))))
    }.toMap)
  }

  /** Mask of the partitions `q` must read (any disjoint predicate skips). */
  private def needed(q: Query): Long = {
    var mask = allParts
    val it = q.preds.iterator
    while (mask != 0 && it.hasNext) mask &= readable(it.next())
    mask
  }

  /** Mask of the partitions that predicate `p` cannot skip. */
  private def readable(p: Predicate): Long = {
    val col = colIndex.get(p.colName)
    if (col == null) return allParts // unknown column: never skips
    val mn = mins(col); val mx = maxs(col); val cs = codes(col)
    var mask = 0L
    var i = 0
    p match {
      case RangePred(_, lo, hi) =>
        // branch-free: which partitions pass varies from one to the next;
        // for a code mask x, (x | -x) >>> 63 is 1 iff x != 0
        if (cs == null) while (i < n) {
          val hit = !(hi < mn(i)) & !(lo > mx(i))
          mask |= (if (hit) 1L else 0L) << i
          i += 1
        } else {
          val want = codeRange(lo, hi)
          while (i < n) {
            val hit = !(hi < mn(i)) & !(lo > mx(i))
            val x = cs(i) & want
            mask |= ((if (hit) 1L else 0L) & (x | -x) >>> 63) << i
            i += 1
          }
        }
      case in: InPred if cs != null =>
        val want = in.codeMask
        while (i < n) {
          val x = cs(i) & want
          mask |= ((x | -x) >>> 63) << i
          i += 1
        }
      case InPred(_, values) =>
        val vs = values.toArray
        while (i < n) {
          var k = 0
          while (k < vs.length && (vs(k) < mn(i) || vs(k) > mx(i))) k += 1
          if (k < vs.length) mask |= 1L << i
          i += 1
        }
    }
    mask
  }

  /** BIDs of partitions the query must read (the `BID IN (...)` list). */
  def partitionsNeeded(q: Query): Seq[Int] = {
    var mask = needed(q)
    val out = new Array[Int](java.lang.Long.bitCount(mask))
    var k = 0
    while (mask != 0) {
      out(k) = bids(java.lang.Long.numberOfTrailingZeros(mask))
      mask &= mask - 1
      k += 1
    }
    ArraySeq.unsafeWrapArray(out)
  }

  /** Fraction of data records accessed by `q` — the service cost c(s,q) ∈ [0,1]. */
  def fractionAccessed(q: Query): Double =
    if (totalRows == 0) 0.0
    else {
      var mask = needed(q)
      var rows = 0L
      while (mask != 0) {
        rows += counts(java.lang.Long.numberOfTrailingZeros(mask))
        mask &= mask - 1
      }
      rows.toDouble / totalRows
    }

  /** Fraction of *partitions* skipped (diagnostic; the paper reports data skipped). */
  def fractionPartitionsSkipped(q: Query): Double =
    if (n == 0) 0.0
    else (n - java.lang.Long.bitCount(needed(q))).toDouble / n
}

object LayoutMetadata {

  /** Partitions per layout: one bit each in a `Long` mask. */
  val MaxPartitions = 64

  /** Compile hand-built per-partition metadata. Every partition must have the
    * same columns, and a column keeps distinct sets in all partitions or none.
    */
  def apply(partitions: IndexedSeq[PartitionStats]): LayoutMetadata = {
    val columns = partitions.headOption.fold(IndexedSeq.empty[String])(_.cols.keys.toIndexedSeq.sorted)
    val columnSet = columns.toSet
    for (p <- partitions) require(p.cols.keySet == columnSet,
      s"partition ${p.bid} has columns ${p.cols.keys.toSeq.sorted.mkString(",")}, " +
        s"partition ${partitions.head.bid} has ${columns.mkString(",")}")
    val stats = columns.map(c => partitions.map(_.cols(c)))
    val codes = columns.indices.map { j =>
      val sets = stats(j).map(_.distinct)
      if (sets.forall(_.isEmpty)) null
      else {
        require(sets.forall(_.nonEmpty), s"column ${columns(j)} keeps distinct sets in only some partitions")
        sets.map(_.get.foldLeft(0L)((m, v) => m | codeBit(v, columns(j)))).toArray
      }
    }
    new LayoutMetadata(partitions.map(_.bid).toArray, partitions.map(_.rowCount).toArray, columns,
      stats.map(_.map(_.min).toArray).toArray, stats.map(_.map(_.max).toArray).toArray, codes.toArray)
  }

  /** Mask bit of categorical code `v`; rejects a value that is not an
    * integer in `[0, MetadataBuilder.MaxDistinct)`.
    */
  private[repro] def codeBit(v: Double, column: String): Long = {
    val bit = codeBitOrZero(v)
    if (bit == 0L) throw new IllegalArgumentException(
      s"value $v in column $column is not a code in [0, ${MetadataBuilder.MaxDistinct})")
    bit
  }

  /** Mask bit of `v` if it is a categorical code, else 0 (no code matches it). */
  private[core] def codeBitOrZero(v: Double): Long = {
    val c = v.toInt
    if (c >= 0 && c < MetadataBuilder.MaxDistinct && c == v) 1L << c else 0L
  }

  /** Mask of the codes in `[lo, hi]`, i.e. `[ceil(lo), floor(hi)] ∩ [0, 63]`. */
  private[repro] def codeRange(lo: Double, hi: Double): Long = {
    val a = math.max(math.ceil(lo), 0.0)
    val b = math.min(math.floor(hi), MetadataBuilder.MaxDistinct - 1.0)
    if (a > b) 0L else (-1L << a.toInt) & (-1L >>> (63 - b.toInt))
  }

  private def codeSet(mask: Long): Set[Double] =
    (0 until MetadataBuilder.MaxDistinct).filter(c => (mask >>> c & 1L) != 0).map(_.toDouble).toSet
}
