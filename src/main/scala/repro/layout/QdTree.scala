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
  * The root takes each column's row order from [[DataMatrix.order]], sorted
  * once per sample; a split stably partitions every column's row order into
  * the two children, so no node sorts again (presorted attribute lists, as
  * in SLIQ, Mehta et al., EDBT 1996). Distinct sets are 64-bit code masks,
  * tested as [[LayoutMetadata]] tests them.
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

    // Per-column predicate lists (query index, predicate) for benefit checks.
    val (predQueries, predsByCol): (Array[Array[Int]], Array[Array[Predicate]]) = {
      val qs = Array.fill(nCols)(mutable.ArrayBuilder.make[Int])
      val ps = Array.fill(nCols)(mutable.ArrayBuilder.make[Predicate])
      for (qi <- queryPreds.indices; i <- queryPreds(qi).indices) {
        qs(queryCols(qi)(i)) += qi
        ps(queryCols(qi)(i)) += queryPreds(qi)(i)
      }
      (qs.map(_.result()), ps.map(_.result()))
    }
    val keepDistinct: Array[Boolean] =
      schema.columns.map(c => c.isCategorical && c.cardinality <= MetadataBuilder.MaxDistinct).toArray

    /** A leaf under construction over `rows` sample rows: per column, the
      * rows in ascending order of the column's value (`order`) and the values
      * in that order (`sorted`, for O(log n) split counting and exact child
      * bounds), plus the code mask of each column that keeps distinct sets.
      */
    final class MutNode(val rows: Int, val order: Array[Array[Int]]) {
      var split: Option[(Cut, MutNode, MutNode)] = None
      val sorted: Array[Array[Double]] = Array.tabulate(nCols) { j =>
        val ord = order(j); val col = sample.cols(j)
        val a = new Array[Double](rows)
        var i = 0
        while (i < rows) { a(i) = col(ord(i)); i += 1 }
        a
      }
      val codes: Array[Long] = Array.tabulate(nCols) { j =>
        var mask = 0L
        if (keepDistinct(j)) {
          val s = sorted(j); val name = schema(j).name
          var i = 0
          while (i < rows) { mask |= LayoutMetadata.codeBit(s(i), name); i += 1 }
        }
        mask
      }
      // queries that already skip this whole node gain nothing from any cut
      val skipsNode: Array[Boolean] = Array.tabulate(queryPreds.length) { qi =>
        val ps = queryPreds(qi); val js = queryCols(qi)
        var skips = rows == 0
        var i = 0
        while (!skips && i < ps.length) { skips = canSkip(js(i), ps(i)); i += 1 }
        skips
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

      /** The children of a cut: every column's order stably partitioned. */
      def children(cut: Cut): (MutNode, MutNode) = {
        val cutCol = sample.cols(cut.colIdx)
        val goesLeft = new Array[Boolean](sample.numRows) // by row id
        var nLeft = 0
        var i = 0
        while (i < rows) {
          val row = order(cut.colIdx)(i)
          goesLeft(row) = cutCol(row) < cut.thr
          if (goesLeft(row)) nLeft += 1
          i += 1
        }
        val left = Array.fill(nCols)(new Array[Int](nLeft))
        val right = Array.fill(nCols)(new Array[Int](rows - nLeft))
        var j = 0
        while (j < nCols) {
          val ord = order(j); val l = left(j); val r = right(j)
          var li = 0; var ri = 0
          i = 0
          while (i < rows) {
            val row = ord(i)
            if (goesLeft(row)) { l(li) = row; li += 1 } else { r(ri) = row; ri += 1 }
            i += 1
          }
          j += 1
        }
        (new MutNode(nLeft, left), new MutNode(rows - nLeft, right))
      }
    }

    /** Count of values strictly below `thr` in ascending `a`. */
    def lowerBound(a: Array[Double], thr: Double): Int = {
      var lo = 0; var hi = a.length
      while (lo < hi) {
        val mid = (lo + hi) >>> 1
        if (a(mid) < thr) lo = mid + 1 else hi = mid
      }
      lo
    }

    /** Best (cut, benefit in skipped sample rows) for a leaf, if any. */
    def bestCut(node: MutNode): Option[(Cut, Long)] = {
      var best: Cut = null; var bestGain = 0L
      var ci = 0
      while (ci < cuts.length) {
        val cut = cuts(ci)
        val j = cut.colIdx
        val sj = node.sorted(j)
        if (sj.nonEmpty && cut.thr > sj(0) && cut.thr <= sj(sj.length - 1)) {
          val nLeft = lowerBound(sj, cut.thr)
          val nRight = sj.length - nLeft
          if (nLeft >= minLeaf && nRight >= minLeaf) {
            val lMin = sj(0); val lMax = sj(nLeft - 1)
            val rMin = sj(nLeft); val rMax = sj(sj.length - 1)
            val lower = below(cut.thr)
            val lCodes = node.codes(j) & lower
            val rCodes = node.codes(j) & ~lower
            var gain = 0L
            val colQueries = predQueries(j); val colPreds = predsByCol(j)
            var pi = 0
            while (pi < colPreds.length) {
              if (!node.skipsNode(colQueries(pi))) {
                colPreds(pi) match {
                  case RangePred(_, lo, hi) =>
                    if (hi < lMin || lo > lMax) gain += nLeft
                    if (hi < rMin || lo > rMax) gain += nRight
                  case in: InPred =>
                    if (keepDistinct(j)) {
                      if ((in.codeMask & lCodes) == 0) gain += nLeft
                      if ((in.codeMask & rCodes) == 0) gain += nRight
                    } else {
                      if (!in.values.exists(v => v >= lMin && v <= lMax)) gain += nLeft
                      if (!in.values.exists(v => v >= rMin && v <= rMax)) gain += nRight
                    }
                }
              }
              pi += 1
            }
            if (gain > bestGain) { bestGain = gain; best = cut }
          }
        }
        ci += 1
      }
      if (best == null) None else Some((best, bestGain))
    }

    val root = new MutNode(sample.numRows, sample.order)
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
