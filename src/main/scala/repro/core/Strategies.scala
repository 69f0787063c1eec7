package repro.core

import scala.collection.mutable
import scala.util.Random

/** An online reorganization strategy, driven one query at a time by the
  * [[Simulator]]. Both hooks may return a switch decision (the layout to
  * reorganize into); the driver charges α per decision and applies it after
  * the configured background-reorganization delay Δ.
  */
trait Strategy {
  def name: String

  /** Observe a serviced query; optionally decide to switch. */
  def observe(q: Query): Option[LayoutState]

  /** A freshly generated candidate layout arrives; optionally decide to switch. */
  def onCandidate(c: LayoutState): Option[LayoutState]

  /** The layout the strategy currently considers active (ignoring Δ). */
  def current: LayoutState
}

/** Offline baseline: one fixed layout for the entire workload (§VI-A3). */
final class StaticStrategy(layout: LayoutState) extends Strategy {
  override val name = "Static"
  override def observe(q: Query): Option[LayoutState] = None
  override def onCandidate(c: LayoutState): Option[LayoutState] = None
  override def current: LayoutState = layout
}

/** Offline-Optimal oracle (§VI-C): adopts every offered layout whose id
  * differs from its current one and never switches on a query. Fed each
  * segment's best layout just before the segment starts
  * ([[Simulator.offlineOptimal]]), it switches exactly at template changes.
  */
final class OfflineOptimalStrategy(initial: LayoutState) extends Strategy {
  override val name = "Offline Optimal"
  private var cur = initial
  override def observe(q: Query): Option[LayoutState] = None
  override def onCandidate(c: LayoutState): Option[LayoutState] =
    if (c.id == cur.id) None else { cur = c; Some(c) }
  override def current: LayoutState = cur
}

/** Greedy baseline (§VI-A3): on each new candidate, switch iff the candidate
  * has a smaller average query cost than the current layout over the sliding
  * window of recent queries — reorganization cost is ignored.
  */
final class GreedyStrategy(initial: LayoutState, windowSize: Int = 200) extends Strategy {
  override val name = "Greedy"
  private var cur = initial
  private val window = mutable.Queue.empty[Query]

  override def observe(q: Query): Option[LayoutState] = {
    window.enqueue(q)
    if (window.size > windowSize) window.dequeue()
    None
  }

  override def onCandidate(c: LayoutState): Option[LayoutState] = {
    if (window.isEmpty) None
    else {
      val curCost = window.iterator.map(cur.cost).sum
      val candCost = window.iterator.map(c.cost).sum
      if (candCost < curCost) { cur = c; Some(c) } else None
    }
  }

  override def current: LayoutState = cur
}

/** Regret baseline (§VI-A3, after TASM): tracks, for every candidate seen,
  * the cumulative query-cost saving versus the current layout over all
  * queries serviced since the current layout was adopted; switches to the
  * best alternative once its cumulative saving exceeds the reorganization
  * cost α. New candidates retroactively replay the since-adoption history.
  */
final class RegretStrategy(initial: LayoutState, alpha: Double,
                           maxAlternatives: Int = 50) extends Strategy {
  override val name = "Regret"
  private var cur = initial
  private val sinceAdoption = mutable.ArrayBuffer.empty[Query]

  /** An alternative and its cumulative saving versus `cur` since adoption. */
  private final class Alt(val state: LayoutState, var saving: Double)

  /** The alternatives by id, in insertion order. */
  private val alts = mutable.LinkedHashMap.empty[String, Alt]

  /** Switches to the alternative with the largest saving above α; of equal
    * savings, the first in insertion order.
    */
  private def maybeSwitch(): Option[LayoutState] = {
    var best: Alt = null
    var top = alpha
    alts.valuesIterator.foreach(a => if (a.saving > top) { best = a; top = a.saving })
    if (best == null) None
    else {
      cur = best.state
      sinceAdoption.clear()
      alts.valuesIterator.foreach(_.saving = 0.0)
      Some(cur)
    }
  }

  override def observe(q: Query): Option[LayoutState] = {
    sinceAdoption += q
    val c = cur.cost(q)
    alts.valuesIterator.foreach(a => a.saving += c - a.state.cost(q))
    maybeSwitch()
  }

  override def onCandidate(cand: LayoutState): Option[LayoutState] = {
    if (!alts.contains(cand.id)) {
      if (alts.size >= maxAlternatives) alts -= alts.head._1
      alts(cand.id) = new Alt(cand, sinceAdoption.iterator.map(q => cur.cost(q) - cand.cost(q)).sum)
    }
    maybeSwitch()
  }

  override def current: LayoutState = cur
}

/** A strategy driven by the D-UMTS reorganizer over layout states keyed by
  * id: each query moves the system iff D-UMTS leaves its current state.
  *
  * @param initialStates the starting state space; the first is current
  */
abstract class UmtsStrategy(initialStates: Seq[LayoutState], alpha: Double, gamma: Double,
                            rng: Random) extends Strategy {
  protected val states = mutable.LinkedHashMap[String, LayoutState](
    initialStates.map(s => s.id -> s): _*)
  protected val umts = new DUmts[String](alpha, gamma, rng, states.keys.toSeq)

  override def observe(q: Query): Option[LayoutState] = {
    val before = umts.current
    val after = umts.observe(id => states(id).cost(q))
    if (after != before) Some(states(after)) else None
  }

  override def current: LayoutState = states(umts.current)
}

/** OREO: the D-UMTS reorganizer fed by the ε-admission layout manager.
  *
  * @param maxStates cap on the dynamic state space |S|; when exceeded, the
  *                  most redundant non-current state is evicted (§V-B)
  */
final class OreoStrategy(initial: LayoutState, alpha: Double, gamma: Double,
                         manager: LayoutManager, rng: Random,
                         maxStates: Int = 12)
    extends UmtsStrategy(Seq(initial), alpha, gamma, rng) {
  override val name = "OREO"
  private var maxSeen = 1
  private var admitted = 0
  private var offered = 0

  override def observe(q: Query): Option[LayoutState] = {
    manager.observe(q)
    super.observe(q)
  }

  override def onCandidate(c: LayoutState): Option[LayoutState] = {
    offered += 1
    if (!states.contains(c.id)) {
      val existing = states.values.toSeq
      if (manager.shouldAdmit(c, existing)) {
        admitted += 1
        if (states.size >= maxStates) {
          manager.evictionVictim(existing, umts.current).foreach { victim =>
            states -= victim
            umts.removeState(victim)
          }
        }
        states(c.id) = c
        umts.addState(c.id)
        maxSeen = math.max(maxSeen, states.size)
      }
    }
    None // additions never move the system; removals avoid the current state
  }

  def stateSpaceSize: Int = states.size
  def maxStateSpaceSize: Int = maxSeen
  def admittedCount: Int = admitted
  def offeredCount: Int = offered
  def phases: Int = umts.phases
}

/** MTS-Optimal oracle (§VI-C): OREO's MTS algorithm over a *fixed* state
  * space precomputed with workload knowledge (the best layout per template).
  */
final class MtsOptimalStrategy(initial: LayoutState, fixed: Seq[LayoutState],
                               alpha: Double, gamma: Double, rng: Random)
    extends UmtsStrategy(initial +: fixed, alpha, gamma, rng) {
  override val name = "MTS Optimal"
  override def onCandidate(c: LayoutState): Option[LayoutState] = None
}
