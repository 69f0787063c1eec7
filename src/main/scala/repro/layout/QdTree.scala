package repro.layout

import repro.core._
import scala.collection.mutable

/** Node of a Qd-tree: inner nodes hold a range cut `value < threshold`
  * (left subtree) selected from workload predicates; leaves are partitions.
  */
sealed trait QdNode
final case class QdLeaf(bid: Int) extends QdNode
final case class QdSplit(colIdx: Int, threshold: Double, left: QdNode, right: QdNode) extends QdNode

/** A layout produced by [[QdTree.build]]: routes a row by walking the tree. */
final case class QdTreeLayout(id: String, root: QdNode, numPartitions: Int) extends Layout {
  override def bidOf(get: Int => Double): Int = {
    var n = root
    while (true) {
      n match {
        case QdLeaf(bid)                => return bid
        case QdSplit(j, t, left, right) => n = if (get(j) < t) left else right
      }
    }
    -1 // unreachable
  }
}

/** Greedy Qd-tree construction (Yang et al., SIGMOD 2020 — basic cuts only,
  * as in the paper §VI-A1: "greedy construction ... no advanced cuts").
  *
  * Candidate cuts are the boundaries of workload predicates. The greedy
  * criterion for splitting a leaf is the number of sample rows the workload
  * would additionally skip; a child is deemed skippable for a query iff one
  * of the query's predicates on the cut column is disjoint from the child's
  * exact value range (and distinct set) on that column — the standard
  * conservative benefit estimate that refines stats only on the cut column.
  *
  * A build does only the work the workload can use:
  *  - only the columns some predicate reads (the active columns) are sorted,
  *    partitioned and cut. The root takes each one's row order from
  *    [[DataMatrix.orderOf]], sorted once per sample; a split stably
  *    partitions every active column's row order and values into the two
  *    children, so no node sorts again (presorted attribute lists, as in
  *    SLIQ, Mehta et al., EDBT 1996);
  *  - a child re-tests only the queries its parent could not skip;
  *  - a cut's gain is summed from prefix counts over its column's cuts, not
  *    from a pass over the column's predicates (see `bestCut`).
  * Distinct sets are 64-bit code masks, tested as [[LayoutMetadata]] tests
  * them.
  */
object QdTree {

  private final case class Cut(colIdx: Int, thr: Double)

  /** Cap on candidate cuts (the most frequent are kept). */
  private val MaxCuts = 256

  /** Build a Qd-tree layout from a data sample and a query workload.
    *
    * @param sample      data sample (paper: 0.1–1% of the data); a categorical
    *                    column with distinct sets must hold codes in `[0, 64)`
    * @param queries     workload to optimize for (e.g., the sliding window)
    * @param k           target number of partitions (leaves)
    * @param id          layout id
    * @param minLeafFrac minimum leaf size as a fraction of sampleRows / k
    */
  def build(sample: DataMatrix, queries: Seq[Query], k: Int, id: String,
            minLeafFrac: Double = 0.5): QdTreeLayout = {
    require(k >= 1, "k >= 1")
    val schema = sample.schema
    val nCols = schema.size
    val minLeaf = math.max(1, (minLeafFrac * sample.numRows / k).toInt)
    val cuts = candidateCuts(schema, queries).toArray
    val queryPreds = queries.map(_.preds.toArray).toArray
    val queryCols = queryPreds.map(_.map(p => schema.indexOf(p.colName)))
    val allQueries = Array.range(0, queryPreds.length)
    val keepDistinct: Array[Boolean] = schema.columns.map(_.keepsCodes).toArray

    // A value that is not a code is rejected as fromMatrix rejects it: the
    // first by column, then by row, whether or not a predicate reads the column.
    for (j <- 0 until nCols if keepDistinct(j)) {
      val col = sample.cols(j); val name = schema(j).name
      var i = 0
      while (i < col.length) { LayoutMetadata.codeBit(col(i), name); i += 1 }
    }

    // the columns some predicate reads, and each one's cuts (indices into
    // `cuts`) by ascending threshold
    val active: Array[Int] = queryCols.flatten.distinct.sorted
    val colCuts: Array[Array[Int]] = Array.tabulate(nCols) { j =>
      cuts.indices.filter(cuts(_).colIdx == j).sortBy(cuts(_).thr)(Ordering.Double.TotalOrdering).toArray
    }

    /** A leaf under construction over `rows` sample rows. Per active column
      * `j` (null for the others): the rows in ascending order of the column's
      * value (`order(j)`), the values in that order (`sorted(j)`, for
      * O(log n) split counting and exact child bounds) and, if the column
      * keeps distinct sets, the code mask `codes(j)`. `live` holds the
      * queries among `tested` that cannot skip the whole node: the others
      * gain nothing from any cut.
      */
    final class MutNode(val rows: Int, val order: Array[Array[Int]], val sorted: Array[Array[Double]],
                        tested: Array[Int]) {
      var split: Option[(Cut, MutNode, MutNode)] = None
      val codes: Array[Long] = new Array[Long](nCols)
      for (j <- active if keepDistinct(j)) {
        val s = sorted(j)
        var mask = 0L
        var i = 0
        while (i < rows) { mask |= LayoutMetadata.codeBit(s(i), schema(j).name); i += 1 }
        codes(j) = mask
      }
      val live: Array[Int] = if (rows == 0) Array.emptyIntArray else tested.filterNot(skips)

      private def skips(qi: Int): Boolean = {
        val ps = queryPreds(qi); val js = queryCols(qi)
        var i = 0
        while (i < ps.length && !canSkip(js(i), ps(i))) i += 1
        i < ps.length
      }

      /** [[ColumnStats.canSkip]] on this node's stats for column `j`. */
      private def canSkip(j: Int, p: Predicate): Boolean = {
        val min = sorted(j)(0); val max = sorted(j)(rows - 1)
        p match {
          case RangePred(_, lo, hi) =>
            hi < min || lo > max || keepDistinct(j) && (codes(j) & LayoutMetadata.codeRange(lo, hi)) == 0
          case in: InPred =>
            if (keepDistinct(j)) (codes(j) & in.codeMask) == 0 else in.values.forall(v => v < min || v > max)
        }
      }

      /** The children of a cut: every active column's order and values
        * stably partitioned.
        */
      def children(cut: Cut): (MutNode, MutNode) = {
        val cutCol = sample.cols(cut.colIdx)
        val goesLeft = new Array[Boolean](sample.numRows) // by row id
        val cutOrder = order(cut.colIdx)
        var nLeft = 0
        var i = 0
        while (i < rows) {
          val row = cutOrder(i)
          goesLeft(row) = cutCol(row) < cut.thr
          if (goesLeft(row)) nLeft += 1
          i += 1
        }
        val nRight = rows - nLeft
        val lOrder, rOrder = new Array[Array[Int]](nCols)
        val lSorted, rSorted = new Array[Array[Double]](nCols)
        for (j <- active) {
          val ord = order(j); val s = sorted(j)
          val lo = new Array[Int](nLeft); val ls = new Array[Double](nLeft)
          val ro = new Array[Int](nRight); val rs = new Array[Double](nRight)
          var li = 0; var ri = 0
          i = 0
          while (i < rows) {
            val row = ord(i)
            if (goesLeft(row)) { lo(li) = row; ls(li) = s(i); li += 1 }
            else { ro(ri) = row; rs(ri) = s(i); ri += 1 }
            i += 1
          }
          lOrder(j) = lo; lSorted(j) = ls; rOrder(j) = ro; rSorted(j) = rs
        }
        (child(nLeft, lOrder, lSorted), child(nRight, rOrder, rSorted))
      }

      /** A child's ranges and code sets lie within this node's, so a query
        * this node skips stays skipped, and the child tests only `live`.
        * The exception is a column whose child values are all NaN: a range
        * test against a NaN min or max fails, so there the child tests every
        * query. Children have at least `minLeaf` >= 1 rows.
        */
      private def child(rows: Int, order: Array[Array[Int]], sorted: Array[Array[Double]]): MutNode =
        new MutNode(rows, order, sorted, if (active.exists(j => sorted(j)(0).isNaN)) allQueries else live)
    }

    /** A node's valid cuts on one column (threshold within the node's
      * values, at least `minLeaf` rows each side), by ascending threshold:
      * per cut its index in `cuts`, `nLeft`, the left child's max and code
      * mask and the right child's min and code mask (the masks only for a
      * column with distinct sets). `prefixes(a)` counts the predicates that
      * skip the left child on the first `a` cuts, `suffixes(b)` those that
      * skip the right child from cut `b` on.
      */
    final class Run(val m: Int, val cut: Array[Int], val nLeft: Array[Int], val lMax: Array[Double],
                    val rMin: Array[Double], val lCodes: Array[Long], val rCodes: Array[Long]) {
      val prefixes, suffixes = new Array[Int](m + 1)
    }

    /** The run of column `j` on a node of at least one row, or null if no cut is valid. */
    def validCuts(node: MutNode, j: Int): Run = {
      val rows = node.rows; val sj = node.sorted(j)
      val cs = colCuts(j)
      val cut, nLeft = new Array[Int](cs.length)
      val lMax, rMin = new Array[Double](cs.length)
      val lCodes, rCodes = if (keepDistinct(j)) new Array[Long](cs.length) else null
      var m = 0
      for (ci <- cs) {
        val thr = cuts(ci).thr
        if (thr > sj(0) && thr <= sj(rows - 1)) {
          val n = countBelow(sj, rows, thr)
          if (n >= minLeaf && rows - n >= minLeaf) {
            cut(m) = ci; nLeft(m) = n
            lMax(m) = sj(n - 1); rMin(m) = sj(n)
            if (lCodes != null) {
              val lower = below(thr)
              lCodes(m) = node.codes(j) & lower; rCodes(m) = node.codes(j) & ~lower
            }
            m += 1
          }
        }
      }
      if (m == 0) null else new Run(m, cut, nLeft, lMax, rMin, lCodes, rCodes)
    }

    /** Best (cut, benefit in skipped sample rows) for a leaf, if any; a tie
      * goes to the first cut in `cuts`.
      *
      * Along a column's run, the left child's max and code mask only grow,
      * and the right child's min only grows while its code mask only shrinks.
      * So each predicate skips the left child on a prefix of the run and the
      * right child on a suffix: one binary search finds each bound, and
      * prefix sums of the bounds' counts give every cut's `L` and `R`, the
      * predicates that skip its left and right child. A cut's gain is
      * `nLeft·L + nRight·R`.
      */
    def bestCut(node: MutNode): Option[(Cut, Long)] = {
      val rows = node.rows
      val runs = new Array[Run](nCols)
      if (rows > 0) for (j <- active) runs(j) = validCuts(node, j)

      for (qi <- node.live) {
        val ps = queryPreds(qi); val js = queryCols(qi)
        var i = 0
        while (i < ps.length) {
          val j = js(i); val run = runs(j)
          if (run != null) {
            val m = run.m
            val min = node.sorted(j)(0); val max = node.sorted(j)(rows - 1)
            // the left child is skipped on cuts [0, a), the right on [b, m)
            val (a, b) = ps(i) match {
              case RangePred(_, lo, hi) =>
                (if (hi < min) m else countBelow(run.lMax, m, lo),
                 if (lo > max) 0 else countAtMost(run.rMin, m, hi))
              case in: InPred if keepDistinct(j) =>
                (countMeeting(run.lCodes, m, in.codeMask, meets = false),
                 countMeeting(run.rCodes, m, in.codeMask, meets = true))
              case in: InPred =>
                // the left child holds a value iff the least value >= min is
                // <= its max; the right iff the greatest value <= max is >= its min
                var least = Double.PositiveInfinity; var anyAbove = false
                var most = Double.NegativeInfinity; var anyBelow = false
                for (v <- in.values) {
                  if (v >= min) { anyAbove = true; if (v < least) least = v }
                  if (v <= max) { anyBelow = true; if (v > most) most = v }
                }
                (if (anyAbove) countBelow(run.lMax, m, least) else m,
                 if (anyBelow) countAtMost(run.rMin, m, most) else 0)
            }
            run.prefixes(a) += 1
            run.suffixes(b) += 1
          }
          i += 1
        }
      }

      var best = -1; var bestGain = 0L
      for (run <- runs if run != null) {
        val total = run.prefixes.sum
        var endedLeft = 0; var startedRight = 0
        var c = 0
        while (c < run.m) {
          endedLeft += run.prefixes(c); startedRight += run.suffixes(c)
          val nLeft = run.nLeft(c)
          val gain = nLeft.toLong * (total - endedLeft) + (rows - nLeft).toLong * startedRight
          val ci = run.cut(c)
          if (gain > bestGain || gain == bestGain && best >= 0 && ci < best) { bestGain = gain; best = ci }
          c += 1
        }
      }
      if (best < 0) None else Some((cuts(best), bestGain))
    }

    val rootOrder = new Array[Array[Int]](nCols)
    val rootSorted = new Array[Array[Double]](nCols)
    for (j <- active) {
      val ord = sample.orderOf(j); val col = sample.cols(j)
      val s = new Array[Double](ord.length)
      var i = 0
      while (i < ord.length) { s(i) = col(ord(i)); i += 1 }
      rootOrder(j) = ord; rootSorted(j) = s
    }
    val root = new MutNode(sample.numRows, rootOrder, rootSorted, allQueries)
    implicit val ord: Ordering[(Long, MutNode, Cut)] = Ordering.by(_._1)
    val pq = mutable.PriorityQueue.empty[(Long, MutNode, Cut)] // max-heap by gain
    bestCut(root).foreach { case (c, g) => pq.enqueue((g, root, c)) }
    var leaves = 1
    while (leaves < k && pq.nonEmpty) {
      val (_, node, cut) = pq.dequeue()
      val (l, r) = node.children(cut)
      node.split = Some((cut, l, r))
      leaves += 1
      for (child <- Seq(l, r); (c, g) <- bestCut(child)) pq.enqueue((g, child, c))
    }

    // assign BIDs in DFS order and freeze the tree
    var nextBid = 0
    def freeze(n: MutNode): QdNode = n.split match {
      case Some((cut, l, r)) => QdSplit(cut.colIdx, cut.thr, freeze(l), freeze(r))
      case None =>
        val b = nextBid; nextBid += 1; QdLeaf(b)
    }
    val frozen = freeze(root)
    QdTreeLayout(id, frozen, nextBid)
  }

  /** Count of the values `< x` among ascending `a(0 until m)`. */
  private def countBelow(a: Array[Double], m: Int, x: Double): Int = {
    var lo = 0; var hi = m
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (a(mid) < x) lo = mid + 1 else hi = mid
    }
    lo
  }

  /** Count of the values `<= x` among ascending `a(0 until m)`. */
  private def countAtMost(a: Array[Double], m: Int, x: Double): Int = {
    var lo = 0; var hi = m
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (a(mid) <= x) lo = mid + 1 else hi = mid
    }
    lo
  }

  /** Length of the prefix of `masks(0 until m)` whose masks meet `mask` (if
    * `meets`) or are disjoint from it (if not); the masks only grow or only
    * shrink, so that the answer holds on a prefix.
    */
  private def countMeeting(masks: Array[Long], m: Int, mask: Long, meets: Boolean): Int = {
    var lo = 0; var hi = m
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (((masks(mid) & mask) != 0) == meets) lo = mid + 1 else hi = mid
    }
    lo
  }

  /** Mask of the codes `< thr`, i.e. `[0, ceil(thr))` ∩ `[0, 64)`. */
  private def below(thr: Double): Long = {
    val c = math.ceil(thr)
    if (c >= MetadataBuilder.MaxDistinct) -1L else if (c > 0) (1L << c.toInt) - 1 else 0L
  }

  /** Candidate cuts from predicate boundaries, deduped, capped by frequency. */
  private def candidateCuts(schema: TableSchema, queries: Seq[Query]): Seq[Cut] = {
    val freq = mutable.Map.empty[Cut, Int]
    def add(c: Cut): Unit = freq(c) = freq.getOrElse(c, 0) + 1
    for (q <- queries; p <- q.preds) {
      val j = schema.indexOf(p.colName)
      p match {
        case RangePred(_, lo, hi) =>
          add(Cut(j, lo)); add(Cut(j, math.nextUp(hi)))
        case InPred(_, vs) =>
          if (vs.size <= 8) vs.foreach { v => add(Cut(j, v)); add(Cut(j, v + 1)) }
          else { add(Cut(j, vs.min)); add(Cut(j, vs.max + 1)) }
      }
    }
    freq.toSeq.sortBy { case (c, n) => (-n, c.colIdx, c.thr) }.take(MaxCuts).map(_._1)
  }
}
