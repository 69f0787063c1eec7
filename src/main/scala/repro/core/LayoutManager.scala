package repro.core

import scala.util.Random

/** The LAYOUT MANAGER (§V, Algorithm 5): decides whether a freshly generated
  * candidate layout is admitted into the dynamic state space.
  *
  * Two layouts are considered similar if they incur similar query costs over
  * the stream: each layout is evaluated on an R-TBS time-biased sample of
  * queries to get a cost vector, and the candidate is admitted only if its
  * normalized L1 distance to *every* existing state is at least ε.
  *
  * @param epsilon        admission distance threshold ∈ [0, 1]
  * @param sampleCapacity R-TBS query sample size s
  * @param lambda         R-TBS exponential decay rate
  */
final class LayoutManager(val epsilon: Double, sampleCapacity: Int = 50,
                          lambda: Double = 2e-4, rng: Random = new Random(17)) {
  require(epsilon >= 0 && epsilon <= 1, "epsilon must be in [0, 1]")

  private val rtbs = new Rtbs[Query](sampleCapacity, lambda, rng)

  /** Feed one stream query into the time-biased sample. */
  def observe(q: Query): Unit = rtbs.add(q)

  /** Current query sample (arrival order). */
  def querySample: IndexedSeq[Query] = rtbs.sample

  /** Normalized L1 distance between two cost vectors. */
  def distance(a: IndexedSeq[Double], b: IndexedSeq[Double]): Double = {
    require(a.length == b.length, "cost vectors must be same length")
    if (a.isEmpty) 0.0
    else {
      var sum = 0.0
      var i = 0
      while (i < a.length) { sum += math.abs(a(i) - b(i)); i += 1 }
      sum / a.length
    }
  }

  /** Minimum distance from `candidate` to any of `existing` (∞ if none), on
    * one snapshot of the query sample.
    */
  private def minDistance(candidate: LayoutState, existing: Seq[LayoutState],
                          sample: IndexedSeq[Query]): Double = {
    val cv = sample.map(candidate.cost)
    if (existing.isEmpty) Double.PositiveInfinity
    else existing.map(s => distance(cv, sample.map(s.cost))).min
  }

  /** Algorithm 5 admission test: ≥ ε away from every existing state. */
  def shouldAdmit(candidate: LayoutState, existing: Seq[LayoutState]): Boolean = {
    val sample = querySample
    sample.isEmpty || minDistance(candidate, existing, sample) >= epsilon
  }

  /** Pick a state to evict when the state space exceeds its cap: the state
    * (excluding the current one) whose cost vector is closest to some other
    * remaining state — i.e., the most redundant one (§V-B pruning).
    */
  def evictionVictim(existing: Seq[LayoutState], currentId: String): Option[String] = {
    val removable = existing.filterNot(_.id == currentId)
    val sample = querySample
    if (removable.isEmpty) None
    else if (sample.isEmpty || existing.size < 2) Some(removable.head.id)
    else {
      val vector = existing.map(s => s.id -> sample.map(s.cost)).toMap
      Some(removable.minBy { s =>
        existing.filterNot(_.id == s.id).map(o => distance(vector(s.id), vector(o.id))).min
      }.id)
    }
  }
}
