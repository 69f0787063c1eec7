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

  /** Per-state record of the solver.
    *
    * @param counter   BLS counter
    * @param phaseCost full-phase accrued cost — unlike the counter, this keeps
    *                  accruing after the counter fills, so the predictor sees
    *                  the state's true average cost over the whole phase (§IV-C)
    * @param weight    predictor weight = avg fraction skipped in the previous
    *                  phase (1.0 until the state has one)
    * @param active    counter not yet full in this phase (the state is in S_A)
    * @param pending   added mid-phase: no real counter history until the next reset
    */
  private final class Slot(var counter: Double, var phaseCost: Double, var weight: Double,
                           var active: Boolean, var pending: Boolean)

  /** All known states (the dynamic S), insertion-ordered for determinism. */
  private val slots = mutable.LinkedHashMap[S, Slot](
    initialStates.map(_ -> new Slot(0.0, 0.0, 1.0, active = true, pending = false)): _*)

  private var cur: S = initialStates.head
  private var queriesInPhase: Int = 0
  private var _switches: Int = 0
  private var _phases: Int = 1

  def current: S = cur
  def states: Set[S] = slots.keySet.toSet
  def activeStates: Set[S] = slots.collect { case (s, slot) if slot.active => s }.toSet
  def switches: Int = _switches
  def phases: Int = _phases
  def counterOf(s: S): Double = slots.get(s).fold(alpha)(_.counter)

  private def isActive(s: S): Boolean = slots.get(s).exists(_.active)

  /** Draw the next state from the active set using the γ-weighted predictor
    * distribution (Theorem IV.2 setup); uniform when γ = 0.
    */
  private def pickNext(): S = {
    val cands = slots.iterator.filter(_._2.active).toIndexedSeq
    require(cands.nonEmpty, "cannot pick from an empty active set")
    if (gamma == 0.0 || cands.size == 1) cands(rng.nextInt(cands.size))._1
    else {
      val ws = cands.map { case (_, slot) => math.pow(math.max(slot.weight, 1e-9), gamma) }
      val total = ws.sum
      var r = rng.nextDouble() * total
      var i = 0
      while (i < cands.size - 1 && r >= ws(i)) { r -= ws(i); i += 1 }
      cands(i)._1
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
      val seen = slots.values.filterNot(_.pending).toSeq
      val ws = seen.map(slot => math.min(1.0, math.max(0.0, 1.0 - slot.phaseCost / queriesInPhase)))
      for ((slot, w) <- seen.zip(ws)) slot.weight = w
      val median = if (ws.isEmpty) 1.0 else ws.sorted.apply(ws.size / 2)
      for (slot <- slots.values if slot.pending) slot.weight = median
    }
    for (slot <- slots.values) {
      slot.pending = false; slot.active = true; slot.counter = 0.0; slot.phaseCost = 0.0
    }
    queriesInPhase = 0
    _phases += 1
  }

  /** Phase-start selection with the stay-in-place optimization (§IV-A). */
  private def startPhase(): Unit = {
    resetStates()
    if (!isActive(cur)) moveTo(pickNext())
    // else: stay — saves the initial random transition cost
  }

  /** Add a state (Algorithm 4, lines 12–14): it joins S immediately but only
    * becomes active at the next phase reset ("defer to the next phase"); its
    * counter reads α, so it is not selectable until then.
    */
  def addState(s: S): Unit =
    if (!slots.contains(s)) slots(s) = new Slot(alpha, 0.0, 1.0, active = false, pending = true)

  /** Remove a state (Algorithm 4, lines 5–11). */
  def removeState(s: S): Unit = {
    if (slots.contains(s)) {
      require(slots.size > 1, "cannot remove the last remaining state")
      slots -= s
      if (!slots.valuesIterator.exists(_.active)) startPhase()
      if (s == cur) moveTo(pickNext()) // startPhase may already have moved off s
    }
  }

  /** UpdateCounters (Algorithm 3) for one query: `costs(s)` is c(s, q) ∈ [0,1];
    * a cost that is NaN, infinite or outside [0,1] is rejected. A state whose
    * counter reaches α leaves the active set.
    * Returns the state the system is in *after* processing (the query itself
    * is serviced in the pre-move state; the driver accounts costs that way).
    */
  def observe(costs: S => Double): S = {
    queriesInPhase += 1
    var anyActive = false
    slots.foreachEntry { (s, slot) =>
      val c = costs(s)
      require(c >= 0.0 && c <= 1.0, s"cost $c of state $s is not in [0, 1]")
      slot.phaseCost += c
      if (slot.active) {
        slot.counter += c
        slot.active = slot.counter < alpha
        anyActive ||= slot.active
      }
    }
    if (!isActive(cur)) {
      if (!anyActive) startPhase()
      else moveTo(pickNext())
    }
    cur
  }
}
