package repro.core

import scala.collection.mutable
import scala.util.Random

/** Dynamic Uniform Metrical Task System solver — the REORGANIZER core.
  *
  * Implements the Borodin–Linial–Saks counter algorithm (Algorithms 1–3 of
  * the paper) extended per Algorithm 4 with:
  *  - state additions, deferred to the next phase;
  *  - state removals mid-phase (counter forced to α; reset if the active set
  *    empties; random re-selection if the current state is removed);
  *  - the "stay in the current state at phase start" optimization (§IV-A);
  *  - a predictor-weighted transition distribution (§IV-C): on a jump, the
  *    next state is drawn with probability ∝ w_s^γ where w_s is the average
  *    fraction of data skipped by s in the previous phase (γ = 0 recovers
  *    the uniform distribution of the classic algorithm). States with no
  *    phase history get the median weight of the others (§IV-C).
  *
  * The solver is generic in the state id type `S` and fully deterministic
  * given the seed of `rng`.
  *
  * @param alpha reorganization (movement) cost; counters "fill" at α
  * @param gamma transition-distribution sharpness (0 = uniform)
  */
final class DUmts[S](val alpha: Double, val gamma: Double, rng: Random,
                     initialStates: Seq[S]) {
  require(alpha > 0, "alpha must be positive")
  require(gamma >= 0, "gamma must be non-negative")
  require(initialStates.nonEmpty, "need at least one initial state")

  /** All known states (the dynamic S); insertion-ordered for determinism. */
  private val all = mutable.LinkedHashSet[S](initialStates: _*)
  /** States whose counters are not yet full in this phase (S_A). */
  private val active = mutable.LinkedHashSet[S](initialStates: _*)
  /** BLS counters, kept for every state in S. */
  private val counter = mutable.LinkedHashMap[S, Double](initialStates.map(_ -> 0.0): _*)
  /** Full-phase accrued cost per state — unlike the counters, this keeps
    * accruing after a state's counter fills, so the predictor sees each
    * state's true average cost over the whole phase (§IV-C).
    */
  private val phaseCost = mutable.LinkedHashMap[S, Double](initialStates.map(_ -> 0.0): _*)
  /** Predictor weight per state = avg fraction skipped in the previous phase. */
  private val weight = mutable.LinkedHashMap[S, Double](initialStates.map(_ -> 1.0): _*)
  /** States added mid-phase: no real counter history until the next reset. */
  private val pendingNew = mutable.Set.empty[S]

  private var cur: S = initialStates.head
  private var queriesInPhase: Int = 0
  private var _switches: Int = 0
  private var _phases: Int = 1

  def current: S = cur
  def states: Set[S] = all.toSet
  def activeStates: Set[S] = active.toSet
  def switches: Int = _switches
  def phases: Int = _phases
  def counterOf(s: S): Double = counter.getOrElse(s, alpha)

  /** Draw the next state from the active set using the γ-weighted predictor
    * distribution (Theorem IV.2 setup); uniform when γ = 0.
    */
  private def pickNext(): S = {
    val cands = active.toIndexedSeq
    require(cands.nonEmpty, "cannot pick from an empty active set")
    if (gamma == 0.0 || cands.size == 1) cands(rng.nextInt(cands.size))
    else {
      val ws = cands.map(s => math.pow(math.max(weight.getOrElse(s, 1.0), 1e-9), gamma))
      val total = ws.sum
      var r = rng.nextDouble() * total
      var i = 0
      while (i < cands.size - 1 && r >= ws(i)) { r -= ws(i); i += 1 }
      cands(i)
    }
  }

  private def moveTo(s: S): Unit = if (s != cur) { cur = s; _switches += 1 }

  /** ResetStates (Algorithm 2): start a new phase over the full state set,
    * first snapshotting predictor weights from the finished phase.
    */
  private def resetStates(): Unit = {
    if (queriesInPhase > 0) {
      // avg fraction skipped = 1 - (full-phase accrued cost) / #queries;
      // only states that observed the whole phase have a meaningful value
      val seen = all.toSeq.filterNot(pendingNew.contains)
      val ws = seen.map(s => math.min(1.0, math.max(0.0, 1.0 - phaseCost(s) / queriesInPhase)))
      for ((s, w) <- seen.zip(ws)) weight(s) = w
      val median = if (ws.isEmpty) 1.0 else ws.sorted.apply(ws.size / 2)
      for (s <- pendingNew) weight(s) = median
    }
    pendingNew.clear()
    active.clear(); active ++= all
    for (s <- all) { counter(s) = 0.0; phaseCost(s) = 0.0 }
    queriesInPhase = 0
    _phases += 1
  }

  /** Phase-start selection with the stay-in-place optimization (§IV-A). */
  private def startPhase(): Unit = {
    resetStates()
    if (!active.contains(cur)) moveTo(pickNext())
    // else: stay — saves the initial random transition cost
  }

  /** Add a state (Algorithm 4, lines 12–14): it joins S immediately but only
    * becomes active at the next phase reset ("defer to the next phase").
    */
  def addState(s: S): Unit = {
    if (!all.contains(s)) {
      all += s
      counter(s) = alpha // not selectable until the next reset
      phaseCost(s) = 0.0
      pendingNew += s
    }
  }

  /** Remove a state (Algorithm 4, lines 5–11). */
  def removeState(s: S): Unit = {
    if (all.contains(s)) {
      require(all.size > 1, "cannot remove the last remaining state")
      all -= s; active -= s; counter -= s; phaseCost -= s; weight -= s; pendingNew -= s
      if (active.isEmpty) startPhase()
      if (s == cur) moveTo(pickNext()) // startPhase may already have moved off s
    }
  }

  /** UpdateCounters (Algorithm 3) for one query: `costs(s)` is c(s, q) ∈ [0,1];
    * a cost that is NaN, infinite or outside [0,1] is rejected.
    * Returns the state the system is in *after* processing (the query itself
    * is serviced in the pre-move state; the driver accounts costs that way).
    */
  def observe(costs: S => Double): S = {
    queriesInPhase += 1
    for (s <- all) {
      val c = costs(s)
      require(c >= 0.0 && c <= 1.0, s"cost $c of state $s is not in [0, 1]")
      phaseCost(s) += c
      if (active.contains(s)) counter(s) += c
    }
    val full = active.filter(counter(_) >= alpha)
    active --= full
    if (!active.contains(cur)) {
      if (active.isEmpty) startPhase()
      else moveTo(pickNext())
    }
    cur
  }
}
