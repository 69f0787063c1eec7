package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import TestLayouts._

class LayoutManagerSpec extends AnyFunSuite {

  private def manager(eps: Double, queries: Seq[Query] = Nil): LayoutManager = {
    val m = new LayoutManager(eps, sampleCapacity = 50, lambda = 0.0, rng = new Random(4))
    queries.foreach(m.observe)
    m
  }

  test("distance of identical vectors is zero") {
    val m = manager(0.1)
    assert(m.distance(IndexedSeq(0.1, 0.5), IndexedSeq(0.1, 0.5)) == 0.0)
  }

  test("distance is the normalized L1") {
    val m = manager(0.1)
    assert(math.abs(m.distance(IndexedSeq(0.0, 1.0), IndexedSeq(1.0, 0.0)) - 1.0) < 1e-12)
    assert(math.abs(m.distance(IndexedSeq(0.0, 0.5), IndexedSeq(0.5, 0.5)) - 0.25) < 1e-12)
  }

  test("distance rejects mismatched lengths") {
    val m = manager(0.1)
    assertThrows[IllegalArgumentException](m.distance(IndexedSeq(1.0), IndexedSeq(1.0, 2.0)))
  }

  test("cost vectors reflect the query sample") {
    val qs = Seq(query(0), query(5))
    val m = manager(0.1, qs)
    val s = state("s05", Set(0, 5))
    assert(m.querySample.map(s.cost) == IndexedSeq(0.1, 0.1))
    val t = state("t1", Set(1))
    assert(m.querySample.map(t.cost) == IndexedSeq(0.9, 0.9))
  }

  test("identical layouts are rejected") {
    val qs = (0 until 10).map(v => query(v))
    val m = manager(0.05, qs)
    assert(!m.shouldAdmit(state("b", Set(1, 2)), Seq(state("a", Set(1, 2)))))
  }

  test("sufficiently different layouts are admitted") {
    val qs = (0 until 10).map(v => query(v))
    val m = manager(0.05, qs)
    assert(m.shouldAdmit(state("b", Set(7, 8, 9)), Seq(state("a", Set(0, 1)))))
  }

  test("admission requires distance to every existing state") {
    val qs = (0 until 10).map(v => query(v))
    val m = manager(0.05, qs)
    val existing = Seq(state("a", Set(0, 1)), state("b", Set(7, 8)))
    // candidate is far from a but identical to b
    assert(!m.shouldAdmit(state("c", Set(7, 8)), existing))
  }

  test("higher epsilon admits fewer layouts") {
    val qs = (0 until 10).map(v => query(v))
    val existing = Seq(state("a", Set(0)))
    val cand = state("c", Set(0, 1)) // slightly different from a
    val lo = manager(0.001, qs)
    val hi = manager(0.9, qs)
    assert(lo.shouldAdmit(cand, existing))
    assert(!hi.shouldAdmit(cand, existing))
  }

  test("empty query sample admits everything (cold start)") {
    val m = manager(0.5)
    assert(m.shouldAdmit(state("x", Set(1)), Seq(state("a", Set(1)))))
  }

  test("empty existing set admits (infinite distance)") {
    val qs = (0 until 5).map(v => query(v))
    val m = manager(0.5, qs)
    assert(m.shouldAdmit(state("x", Set(1)), Nil))
    // no two cost vectors in [0, 1] are farther apart than 1: only ∞ passes ε = 1
    assert(manager(1.0, qs).shouldAdmit(state("x", Set(1)), Nil))
  }

  test("eviction never removes the current state") {
    val qs = (0 until 10).map(v => query(v))
    val m = manager(0.05, qs)
    val states = Seq(state("a", Set(0)), state("b", Set(1)), state("c", Set(2)))
    for (cur <- Seq("a", "b", "c")) {
      assert(m.evictionVictim(states, cur).exists(_ != cur))
    }
  }

  test("eviction picks the most redundant state") {
    val qs = (0 until 10).map(v => query(v))
    val m = manager(0.05, qs)
    // b and b2 are near-identical; c is distinct. Victim should be b or b2.
    val states = Seq(state("b", Set(1, 2)), state("b2", Set(1, 2, 3)), state("c", Set(7, 8, 9)))
    val victim = m.evictionVictim(states, "c")
    assert(victim.contains("b") || victim.contains("b2"))
  }

  test("eviction with only the current state returns None") {
    val m = manager(0.05, Seq(query(0)))
    assert(m.evictionVictim(Seq(state("a", Set(0))), "a").isEmpty)
  }

  test("query sample evolves with the stream") {
    val m = manager(0.1)
    (0 until 100).foreach(i => m.observe(query(i % 10, i)))
    assert(m.querySample.size == 50)
  }

  test("a candidate offer builds each state's cost vector at most once, eviction included") {
    var evals = 0
    // point query x = v whose predicate list counts reads: c(s, q) reads it once
    def counted(v: Int, id: Int): Query = {
      val p = InPred("x", Set(v.toDouble))
      Query(id, v, new scala.collection.immutable.AbstractSeq[Predicate] {
        def apply(i: Int): Predicate = p
        def length: Int = 1
        def iterator: Iterator[Predicate] = { evals += 1; Iterator.single(p) }
      })
    }
    val m = manager(0.05)
    val o = new OreoStrategy(state("init", Set.empty), alpha = 50, gamma = 1.0, m,
      new Random(1), maxStates = 3)
    (0 until 40).foreach(i => o.observe(counted(i % 10, i)))
    val n = m.querySample.size
    for ((id, goodFor) <- Seq("a" -> Set(1), "b" -> Set(2, 3), "c" -> Set(4, 5, 6), "d" -> Set(7, 8))) {
      val before = o.stateSpaceSize
      evals = 0
      o.onCandidate(state(id, goodFor))
      assert(evals <= (before + 1) * n, s"offer $id: $evals cost evaluations, sample of $n, |S| = $before")
    }
    assert(o.admittedCount == 4 && o.stateSpaceSize == 3) // the last two offers evicted
  }
}
