package repro.core

import repro.layout.Layout

/** An MTS state: a layout plus the partition-level metadata OREO uses to
  * estimate its query costs without touching the data.
  *
  * The service cost is memoized per state, so that every replay of a stream
  * against this state evaluates each query once. The memo has one slot per
  * `Query.id` (the query's stream position), holding the query object and its
  * cost. A slot answers only the very query object it was filled with (`eq`):
  * another query with the same id misses and takes the slot over. Entries are
  * immutable, so callers on several threads need no lock: a race can only
  * lose an entry, which is then computed again.
  */
final case class LayoutState(layout: Layout, metadata: LayoutMetadata) {
  def id: String = layout.id

  private var memo = LayoutState.NoEntries

  /** Service cost c(s, q): fraction of data records accessed. */
  def cost(q: Query): Double = {
    val i = q.id
    val slots = memo
    if (i >= 0 && i < slots.length) {
      val e = slots(i)
      if (e != null && (e.q eq q)) return e.cost
    }
    val c = metadata.fractionAccessed(q)
    if (i >= 0) {
      val into = if (i < slots.length) slots else grown(slots, i)
      into(i) = new LayoutState.Entry(q, c)
    }
    c
  }

  /** A copy of `slots`, doubled until it has a slot `i`, installed as the memo. */
  private def grown(slots: Array[LayoutState.Entry], i: Int): Array[LayoutState.Entry] = {
    var n = math.max(slots.length, 64).toLong
    while (n <= i) n *= 2
    val next = java.util.Arrays.copyOf(slots, math.min(n, Int.MaxValue.toLong).toInt)
    memo = next
    next
  }
}

object LayoutState {

  /** One memoized cost: the query it was computed for and its value. */
  private final class Entry(val q: Query, val cost: Double)

  /** The memo of a state that has evaluated no query yet (never written). */
  private val NoEntries = new Array[Entry](0)
}
