package repro.layout

import repro.core._
import scala.collection.mutable

/** The Qd-tree construction as it was before the presorted build: every node
  * re-sorts every column and keeps its categorical distinct values as a
  * `Set[Double]`. Kept verbatim as the reference that [[QdTreeSpec]] checks
  * [[QdTree.build]] against: both must give `==` layouts.
  */
object QdTreeReference {

  private final case class Cut(colIdx: Int, thr: Double)

  /** Build a Qd-tree layout from a data sample and a query workload.
    *
    * @param sample      data sample (paper: 0.1–1% of the data)
    * @param queries     workload to optimize for (e.g., the sliding window)
    * @param k           target number of partitions (leaves)
    * @param id          layout id
    * @param maxCuts     cap on candidate cuts (most frequent kept)
    * @param minLeafFrac minimum leaf size as a fraction of sampleRows / k
    */
  def build(sample: DataMatrix, queries: Seq[Query], k: Int, id: String,
            maxCuts: Int = 256, minLeafFrac: Double = 0.5): QdTreeLayout = {
    require(k >= 1, "k >= 1")
    val schema = sample.schema
    val minLeaf = math.max(1, (minLeafFrac * sample.numRows / k).toInt)
    val cuts = candidateCuts(schema, queries, maxCuts)
    val queryArr = queries.toArray

    // Per-column predicate lists (query index, predicate) for benefit checks.
    val predsByCol: Array[Array[(Int, Predicate)]] = {
      val m = Array.fill(schema.size)(mutable.ArrayBuffer.empty[(Int, Predicate)])
      for ((q, qi) <- queryArr.zipWithIndex; p <- q.preds)
        m(schema.indexOf(p.colName)) += ((qi, p))
      m.map(_.toArray)
    }
    val keepDistinct: Array[Boolean] =
      schema.columns.map(c => c.isCategorical && c.cardinality <= MetadataBuilder.MaxDistinct).toArray

    /** A leaf under construction: its row ids plus per-column sorted values
      * (for O(log n) split counting and exact child bounds) and distinct sets
      * for categorical columns.
      */
    final class MutNode(val rows: Array[Int]) {
      var split: Option[(Cut, MutNode, MutNode)] = None
      val sorted: Array[Array[Double]] = Array.tabulate(schema.size) { j =>
        val a = new Array[Double](rows.length)
        var i = 0
        while (i < rows.length) { a(i) = sample.cols(j)(rows(i)); i += 1 }
        java.util.Arrays.sort(a)
        a
      }
      val distinct: Array[Set[Double]] = Array.tabulate(schema.size) { j =>
        if (keepDistinct(j)) sorted(j).toSet else null
      }
      // queries that already skip this whole node gain nothing from any cut
      val skipsNode: Array[Boolean] =
        if (rows.isEmpty) Array.fill(queryArr.length)(true)
        else queryArr.map { q =>
          q.preds.exists { p =>
            val j = schema.indexOf(p.colName)
            ColumnStats(sorted(j)(0), sorted(j)(sorted(j).length - 1), Option(distinct(j)))
              .canSkip(p)
          }
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
      for (cut <- cuts) {
        val j = cut.colIdx
        val sj = node.sorted(j)
        if (sj.nonEmpty && cut.thr > sj.head && cut.thr <= sj.last) {
          val nLeft = lowerBound(sj, cut.thr)
          val nRight = sj.length - nLeft
          if (nLeft >= minLeaf && nRight >= minLeaf) {
            val lMin = sj(0); val lMax = sj(nLeft - 1)
            val rMin = sj(nLeft); val rMax = sj(sj.length - 1)
            val dj = node.distinct(j)
            var gain = 0L
            val colPreds = predsByCol(j)
            var pi = 0
            while (pi < colPreds.length) {
              val (qi, p) = colPreds(pi)
              if (!node.skipsNode(qi)) {
                p match {
                  case RangePred(_, lo, hi) =>
                    if (hi < lMin || lo > lMax) gain += nLeft
                    if (hi < rMin || lo > rMax) gain += nRight
                  case InPred(_, vs) =>
                    if (dj != null) {
                      if (!vs.exists(v => dj.contains(v) && v < cut.thr)) gain += nLeft
                      if (!vs.exists(v => dj.contains(v) && v >= cut.thr)) gain += nRight
                    } else {
                      if (!vs.exists(v => v >= lMin && v <= lMax)) gain += nLeft
                      if (!vs.exists(v => v >= rMin && v <= rMax)) gain += nRight
                    }
                }
              }
              pi += 1
            }
            if (gain > bestGain) { bestGain = gain; best = cut }
          }
        }
      }
      if (best == null) None else Some((best, bestGain))
    }

    val root = new MutNode(Array.range(0, sample.numRows))
    implicit val ord: Ordering[(Long, MutNode, Cut)] = Ordering.by(_._1)
    val pq = mutable.PriorityQueue.empty[(Long, MutNode, Cut)] // max-heap by gain
    bestCut(root).foreach { case (c, g) => pq.enqueue((g, root, c)) }
    var leaves = 1
    while (leaves < k && pq.nonEmpty) {
      val (_, node, cut) = pq.dequeue()
      val (lRows, rRows) = node.rows.partition(i => sample.cols(cut.colIdx)(i) < cut.thr)
      val l = new MutNode(lRows); val r = new MutNode(rRows)
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

  /** Candidate cuts from predicate boundaries, deduped, capped by frequency. */
  private def candidateCuts(schema: TableSchema, queries: Seq[Query], maxCuts: Int): Seq[Cut] = {
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
    freq.toSeq.sortBy { case (c, n) => (-n, c.colIdx, c.thr) }.take(maxCuts).map(_._1)
  }
}
