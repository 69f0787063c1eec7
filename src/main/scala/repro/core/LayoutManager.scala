package repro.core

import scala.collection.mutable
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

  /** Cost vector of a layout on `sample` (by default, the current query sample). */
  def costVector(s: LayoutState, sample: IndexedSeq[Query] = querySample): IndexedSeq[Double] =
    sample.map(s.cost)

  /** The cost vectors of one candidate offer: a snapshot of the query sample
    * and each layout's vector on it, built at most once per layout id, so the
    * admission test and eviction share them.
    */
  final class Vectors private[LayoutManager] (val sample: IndexedSeq[Query]) {
    private val built = mutable.HashMap.empty[String, IndexedSeq[Double]]
    def apply(s: LayoutState): IndexedSeq[Double] = built.getOrElseUpdate(s.id, costVector(s, sample))
  }

  /** Cost vectors on a snapshot of the current query sample. */
  def vectors(): Vectors = new Vectors(querySample)

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

  /** Minimum distance from `candidate` to any of `existing` (∞ if none). */
  def minDistance(candidate: LayoutState, existing: Seq[LayoutState],
                  vs: Vectors = vectors()): Double = {
    val cv = vs(candidate)
    if (existing.isEmpty) Double.PositiveInfinity
    else existing.map(s => distance(cv, vs(s))).min
  }

  /** Algorithm 5 admission test: ≥ ε away from every existing state. */
  def shouldAdmit(candidate: LayoutState, existing: Seq[LayoutState],
                  vs: Vectors = vectors()): Boolean =
    vs.sample.isEmpty || minDistance(candidate, existing, vs) >= epsilon

  /** Pick a state to evict when the state space exceeds its cap: the state
    * (excluding the current one) whose cost vector is closest to some other
    * remaining state — i.e., the most redundant one (§V-B pruning).
    */
  def evictionVictim(existing: Seq[LayoutState], currentId: String,
                     vs: Vectors = vectors()): Option[String] = {
    val removable = existing.filterNot(_.id == currentId)
    if (removable.isEmpty) None
    else if (vs.sample.isEmpty || existing.size < 2) Some(removable.head.id)
    else Some(removable.minBy { s =>
      existing.filterNot(_.id == s.id).map(o => distance(vs(s), vs(o))).min
    }.id)
  }
}
