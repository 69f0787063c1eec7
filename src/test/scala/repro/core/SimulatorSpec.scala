package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.workload.Workload
import TestLayouts._

class SimulatorSpec extends AnyFunSuite {

  /** A workload of `n` point queries on value `v` (single segment). */
  private def flat(n: Int, v: Int): Workload =
    Workload(Vector.tabulate(n)(i => query(v, i)), Vector(0), Vector(v))

  /** Two equal segments on values v1 then v2. */
  private def twoSeg(n: Int, v1: Int, v2: Int): Workload =
    Workload(Vector.tabulate(n)(i => query(if (i < n / 2) v1 else v2, i)),
      Vector(0, n / 2), Vector(v1, v2))

  private val defaultState = state("default", Set.empty)

  test("static run accumulates pure query cost") {
    val r = Simulator.run(flat(10, 3), defaultState, Nil,
      new StaticStrategy(defaultState), alpha = 80)
    assert(r.queryCost == 10.0) // cost 1.0 per query
    assert(r.reorgCost == 0.0 && r.switches == 0)
  }

  test("a decided switch is charged alpha immediately") {
    val good = state("good3", Set(3))
    val r = Simulator.run(flat(10, 3), defaultState, Seq(Candidate(0, good)),
      new GreedyStrategy(defaultState, windowSize = 5), alpha = 7)
    assert(r.switches == 1)
    assert(r.reorgCost == 7.0)
  }

  test("switch takes effect from the next query (delay 0)") {
    val good = state("good3", Set(3))
    // candidate offered after query 0 → switch decided at i=0, effective at 1
    val r = Simulator.run(flat(10, 3), defaultState, Seq(Candidate(0, good)),
      new GreedyStrategy(defaultState, windowSize = 5), alpha = 7)
    // query 0 at cost 1.0 on default; queries 1..9 at 0.1 on good3
    assert(math.abs(r.queryCost - (1.0 + 9 * 0.1)) < 1e-9)
  }

  test("reorganization delay defers the query savings but not the cost") {
    val good = state("good3", Set(3))
    def qc(delay: Int): SimResult =
      Simulator.run(flat(20, 3), defaultState, Seq(Candidate(0, good)),
        new GreedyStrategy(defaultState, windowSize = 5), alpha = 7, delay = delay)
    val d0 = qc(0); val d5 = qc(5)
    assert(d0.reorgCost == d5.reorgCost) // cost incurred at decision time
    assert(math.abs(d5.queryCost - d0.queryCost - 5 * 0.9) < 1e-9) // 5 extra slow queries
  }

  test("candidates are delivered in order even when batched") {
    val goodA = state("goodA", Set(3))
    val goodB = state("goodB", Set(3, 4))
    var seen = List.empty[String]
    val probe = new Strategy {
      val name = "probe"
      def observe(q: Query): Option[LayoutState] = None
      def onCandidate(c: LayoutState): Option[LayoutState] = { seen ::= c.id; None }
      def current: LayoutState = defaultState
    }
    Simulator.run(flat(5, 3), defaultState,
      Seq(Candidate(1, goodA), Candidate(1, goodB)), probe, alpha = 1)
    assert(seen.reverse == List("goodA", "goodB"))
  }

  // ---------- Offline Optimal ----------
  test("offline optimal switches exactly at segment boundaries") {
    val best = Map(3 -> state("best3", Set(3)), 7 -> state("best7", Set(7)))
    val r = Simulator.offlineOptimal(twoSeg(20, 3, 7), defaultState, best, alpha = 5)
    assert(r.switches == 2) // default→best3 at q0, best3→best7 at q10
    assert(r.reorgCost == 10.0)
    assert(math.abs(r.queryCost - 20 * 0.1) < 1e-9) // always on the best layout
  }

  test("offline optimal does not switch when the segment's best is current") {
    val best = Map(3 -> state("best3", Set(3)))
    val r = Simulator.offlineOptimal(
      Workload(Vector.tabulate(10)(i => query(3, i)), Vector(0, 5), Vector(3, 3)),
      defaultState, best, alpha = 5)
    assert(r.switches == 1) // only the initial move
  }

  test("offline optimal without a known best stays put") {
    val r = Simulator.offlineOptimal(flat(10, 3), defaultState, Map.empty, alpha = 5)
    assert(r.switches == 0)
    assert(r.queryCost == 10.0)
  }

  test("offline optimal beats any online strategy on a drifting workload") {
    val wl = twoSeg(200, 2, 8)
    val best = Map(2 -> state("best2", Set(2)), 8 -> state("best8", Set(8)))
    val off = Simulator.offlineOptimal(wl, defaultState, best, alpha = 10)
    val candidates = Seq(Candidate(5, best(2)), Candidate(105, best(8)))
    val greedy = Simulator.run(wl, defaultState, candidates,
      new GreedyStrategy(defaultState, 10), alpha = 10)
    assert(off.totalCost <= greedy.totalCost + 1e-9)
  }

  test("a candidate stamped before query 0 is in effect from query delay, charged alpha") {
    val good = state("good3", Set(3))
    for (delay <- Seq(0, 3)) {
      val r = Simulator.run(flat(10, 3), defaultState, Seq(Candidate(-1, good)),
        new OfflineOptimalStrategy(defaultState), alpha = 7, delay = delay)
      // queries before `delay` read the default layout (cost 1.0), the rest good3 (0.1)
      assert(math.abs(r.queryCost - (delay * 1.0 + (10 - delay) * 0.1)) < 1e-9, s"delay $delay")
      assert(r.reorgCost == 7.0 && r.switches == 1)
    }
  }

  /** Segments at 0, 40, 100, 170 and 220 with templates 2, 2, 5, 7, 2 over
    * 260 queries; templates 2 and 5 have a best layout, 7 has none.
    */
  private val fiveSeg: Workload = {
    val starts = Vector(0, 40, 100, 170, 220)
    val templates = Vector(2, 2, 5, 7, 2)
    Workload(Vector.tabulate(260)(i => query(templates(starts.lastIndexWhere(_ <= i)), i)),
      starts, templates)
  }
  private val fiveSegBest = Map(2 -> state("best2", Set(2)), 5 -> state("best5", Set(5, 6)))

  test("offline optimal gives the pinned costs on a five-segment workload") {
    val r = Simulator.offlineOptimal(fiveSeg, defaultState, fiveSegBest, alpha = 9)
    // default→best2 before query 0, →best5 for the segment at 100, →best2 at 220
    assert((r.queryCost, r.reorgCost, r.switches) == ((60.99999999999995, 27.0, 3)))
  }

  test("offline optimal's cumulative cost includes a switch from its decision on") {
    // the first 100 queries, with the segment at 100 still announced: its switch
    // is decided, and charged, at query 99 although it never takes effect
    val prefix = fiveSeg.copy(queries = fiveSeg.queries.take(100))
    val r = Simulator.offlineOptimal(prefix, defaultState, fiveSegBest, alpha = 9)
    assert((r.queryCost, r.reorgCost, r.switches) == ((9.99999999999998, 18.0, 2)))
  }
}
