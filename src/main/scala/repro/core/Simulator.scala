package repro.core

import repro.workload.Workload
import scala.collection.mutable

/** A candidate layout emitted by the layout generator after query `atQuery`
  * has been serviced (its generation window includes that query).
  */
final case class Candidate(atQuery: Int, state: LayoutState)

/** Result of one simulated run.
  *
  * @param queryCost  Σ c(effective layout, q) — fraction-of-data units
  * @param reorgCost  α × number of switch decisions
  * @param switches   number of switch decisions
  */
final case class SimResult(name: String, queryCost: Double, reorgCost: Double, switches: Int) {
  def totalCost: Double = queryCost + reorgCost
}

/** Replays a query stream against a [[Strategy]], accounting query cost on
  * the *effective* layout (decisions take effect Δ+1 queries after they are
  * made — the paper's background-reorganization delay model, §VI-D5: "the
  * cost of the reorganization is incurred as soon as the decision is made"
  * but "longer delays lead to increased query costs").
  *
  * A candidate stamped `atQuery < 0` is offered before the first query, so a
  * switch it prompts is in effect from query Δ.
  */
object Simulator {

  def run(workload: Workload, initial: LayoutState, candidates: Seq[Candidate],
          strategy: Strategy, alpha: Double, delay: Int = 0): SimResult = {
    val candQueue = mutable.Queue(candidates.sortBy(_.atQuery): _*)
    val pending = mutable.Queue.empty[(Int, LayoutState)] // (applyAt, layout)
    var effective = initial
    var queryCost = 0.0
    var reorgCost = 0.0
    var switches = 0

    def decide(i: Int, d: Option[LayoutState]): Unit = d.foreach { next =>
      switches += 1
      reorgCost += alpha
      pending.enqueue((i + 1 + delay, next))
    }

    def offer(i: Int): Unit =
      while (candQueue.nonEmpty && candQueue.head.atQuery <= i) {
        decide(i, strategy.onCandidate(candQueue.dequeue().state))
      }

    offer(-1)
    for ((q, i) <- workload.queries.zipWithIndex) {
      while (pending.nonEmpty && pending.head._1 <= i) effective = pending.dequeue()._2
      queryCost += effective.cost(q)
      decide(i, strategy.observe(q))
      offer(i)
    }
    SimResult(strategy.name, queryCost, reorgCost, switches)
  }

  /** Offline-Optimal oracle (§VI-C): sees the whole workload, switches to the
    * segment's best layout exactly at each template change (no delay, no
    * regret) — the lower bound used in Figure 4. The oracle's candidates are
    * each segment's best layout, stamped one query before the segment starts.
    *
    * @param bestOf best precomputed layout per template id
    */
  def offlineOptimal(workload: Workload, initial: LayoutState,
                     bestOf: Map[Int, LayoutState], alpha: Double): SimResult = {
    val candidates = workload.segmentStarts.zip(workload.segmentTemplates).flatMap {
      case (start, t) => bestOf.get(t).map(Candidate(start - 1, _))
    }
    run(workload, initial, candidates, new OfflineOptimalStrategy(initial), alpha)
  }
}
