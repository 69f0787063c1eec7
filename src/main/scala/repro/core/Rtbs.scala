package repro.core

import scala.collection.mutable
import scala.util.Random

/** Reservoir-based time-biased sampling of the query stream (§V-B).
  *
  * The paper uses R-TBS (Hentschel, Haas, Tian, TODS 2019) to curate a
  * representative query sample in which the inclusion probability of an item
  * decays exponentially with its age. We implement the standard weighted
  * reservoir (Efraimidis–Spirakis A-ES keys): item t gets weight e^{λ·t} and
  * key u^{1/w}; keeping the `capacity` largest keys yields a sample where
  * item inclusion odds decay as e^{-λ·age} — the same exponential time bias.
  *
  * @param capacity sample size s
  * @param lambda   decay rate per item (0 = classic uniform reservoir)
  */
final class Rtbs[T](capacity: Int, lambda: Double, rng: Random) {
  require(capacity > 0, "capacity must be positive")
  require(lambda >= 0, "lambda must be non-negative")

  private case class Entry(key: Double, seq: Long, item: T)
  private implicit val ord: Ordering[Entry] = Ordering.by(e => (-e.key, e.seq))
  // min-key at the head so eviction is O(log s)
  private val heap = mutable.PriorityQueue.empty[Entry]
  private var t: Long = 0

  def size: Int = heap.size

  def add(item: T): Unit = {
    // A-ES key in log domain: λt − log(−log u) ranks items in the same order
    // as u^{1/w} with w = e^{λt}. The direct form log(u)·e^{−λt} underflows
    // to −0.0 once λt passes ≈ 745, and then no new item is ever admitted.
    val logU = math.log(rng.nextDouble() max Double.MinPositiveValue)
    val key = lambda * t - math.log(-logU)
    t += 1
    if (heap.size < capacity) heap.enqueue(Entry(key, t, item))
    else if (key > heap.head.key) { heap.dequeue(); heap.enqueue(Entry(key, t, item)) }
  }

  /** Current sample, in arrival order. */
  def sample: IndexedSeq[T] = heap.toIndexedSeq.sortBy(_.seq).map(_.item)
}
