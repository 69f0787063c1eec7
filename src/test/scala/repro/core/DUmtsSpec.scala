package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import scala.util.hashing.MurmurHash3

class DUmtsSpec extends AnyFunSuite {

  private def mts(states: Seq[String], alpha: Double = 2.0, gamma: Double = 0.0,
                  seed: Long = 1): DUmts[String] =
    new DUmts[String](alpha, gamma, new Random(seed), states)

  test("starts in the first initial state without charging a switch") {
    val m = mts(Seq("a", "b", "c"))
    assert(m.current == "a")
    assert(m.switches == 0)
  }

  test("counters accumulate service costs for active states") {
    val m = mts(Seq("a", "b"), alpha = 10)
    m.observe(Map("a" -> 0.5, "b" -> 0.25))
    m.observe(Map("a" -> 0.5, "b" -> 0.25))
    assert(m.counterOf("a") == 1.0)
    assert(m.counterOf("b") == 0.5)
  }

  test("observe evaluates each state's cost once per query") {
    val m = mts(Seq("a", "b", "c"), alpha = 2)
    m.addState("d") // in S, inactive until the next phase
    val costs = Map("a" -> 1.0, "b" -> 0.5, "c" -> 0.0, "d" -> 0.25)
    for (_ <- 1 to 10) {
      var calls = 0
      m.observe { s => calls += 1; costs(s) }
      assert(calls == m.states.size)
    }
  }

  test("stays put while its counter is below alpha") {
    val m = mts(Seq("a", "b"), alpha = 5)
    for (_ <- 1 to 4) m.observe(Map("a" -> 1.0, "b" -> 0.0))
    assert(m.current == "a")
    assert(m.switches == 0)
  }

  test("switches away when its counter fills") {
    val m = mts(Seq("a", "b"), alpha = 3)
    for (_ <- 1 to 3) m.observe(Map("a" -> 1.0, "b" -> 0.0))
    assert(m.current == "b")
    assert(m.switches == 1)
  }

  test("full states leave the active set") {
    val m = mts(Seq("a", "b"), alpha = 3)
    for (_ <- 1 to 3) m.observe(Map("a" -> 1.0, "b" -> 0.1))
    assert(m.activeStates == Set("b"))
  }

  test("phase resets when all counters fill, and current may stay") {
    val m = mts(Seq("a", "b"), alpha = 1)
    // both fill in one step: phase resets; with the stay optimization the
    // system remains in "a" and pays no movement
    m.observe(Map("a" -> 1.0, "b" -> 1.0))
    assert(m.current == "a")
    assert(m.switches == 0)
    assert(m.phases == 2)
    assert(m.counterOf("a") == 0.0 && m.counterOf("b") == 0.0)
    assert(m.activeStates == Set("a", "b"))
  }

  test("zero-cost state is a safe haven: at most one switch per phase pair") {
    val m = mts(Seq("a", "b"), alpha = 2)
    for (_ <- 1 to 50) m.observe(Map("a" -> 1.0, "b" -> 0.0))
    assert(m.current == "b")
    assert(m.switches == 1) // moved to b once, b never fills
  }

  test("added state is deferred to the next phase") {
    val m = mts(Seq("a", "b"), alpha = 5)
    m.observe(Map("a" -> 1.0, "b" -> 1.0).withDefaultValue(0.0))
    m.addState("c")
    assert(m.states == Set("a", "b", "c"))
    assert(!m.activeStates.contains("c"))
    assert(m.counterOf("c") >= 5) // marked full ⇒ unselectable this phase
    // fill a and b ⇒ reset ⇒ c becomes active
    for (_ <- 1 to 5) m.observe(Map("a" -> 1.0, "b" -> 1.0, "c" -> 0.0))
    assert(m.activeStates.contains("c"))
  }

  test("adding an existing state is a no-op") {
    val m = mts(Seq("a", "b"), alpha = 5)
    m.observe(Map("a" -> 1.0, "b" -> 0.5))
    m.addState("a")
    assert(m.counterOf("a") == 1.0) // unchanged, not reset to alpha
  }

  test("removing a non-current state keeps the system in place") {
    val m = mts(Seq("a", "b", "c"), alpha = 5)
    m.removeState("b")
    assert(m.current == "a")
    assert(m.switches == 0)
    assert(m.states == Set("a", "c"))
  }

  test("removing the current state forces a switch") {
    val m = mts(Seq("a", "b", "c"), alpha = 5)
    m.removeState("a")
    assert(m.current != "a")
    assert(m.switches == 1)
  }

  test("removing the last active state triggers a phase reset") {
    val m = mts(Seq("a", "b"), alpha = 2)
    for (_ <- 1 to 2) m.observe(Map("a" -> 0.0, "b" -> 1.0)) // b fills, a active
    assert(m.activeStates == Set("a"))
    m.removeState("a")
    assert(m.states == Set("b"))
    assert(m.activeStates == Set("b")) // new phase over the updated set
    assert(m.current == "b")
  }

  test("removing the last remaining state is rejected") {
    val m = mts(Seq("a"))
    assertThrows[IllegalArgumentException](m.removeState("a"))
  }

  test("deterministic given the seed") {
    def run(seed: Long): Seq[String] = {
      val m = mts(Seq("a", "b", "c", "d"), alpha = 1.5, seed = seed)
      (1 to 200).map { i =>
        m.observe(s => if (s == m.current) 0.9 else 0.3)
      }
    }
    assert(run(7) == run(7))
    // different seeds should (overwhelmingly) diverge on this adversarial load
    assert(run(7) != run(8))
  }

  test("phase length scales with alpha") {
    def phasesAfter(alpha: Double): Int = {
      val m = mts(Seq("a", "b"), alpha = alpha)
      for (_ <- 1 to 100) m.observe(_ => 1.0)
      m.phases
    }
    assert(phasesAfter(2) > phasesAfter(20))
  }

  test("higher alpha means fewer switches on an adversarial stream") {
    def switches(alpha: Double): Int = {
      val m = mts(Seq("a", "b", "c"), alpha = alpha, seed = 5)
      for (_ <- 1 to 300) m.observe(s => if (s == m.current) 1.0 else 0.2)
      m.switches
    }
    assert(switches(2.0) > switches(30.0))
  }

  test("gamma-weighted transitions favor the stronger state") {
    // phase 1 builds predictor weights: a=1.0, b=0.1, c=0.5, d=0.9 costs
    // ⇒ weights a=0, b=0.9, c=0.5, d=0.1. The phase ends when b (slowest)
    // fills; the stay-optimization leaves us in b. Then fill the current
    // state and check where the γ-weighted jump lands: among {a, c, d} the
    // predictor should overwhelmingly pick c (0.5 ≫ 0.1 ≫ 0).
    var pickedC = 0
    for (seed <- 1 to 50) {
      val m = mts(Seq("a", "b", "c", "d"), alpha = 3, gamma = 8.0, seed = seed)
      for (_ <- 1 to 30) m.observe(Map("a" -> 1.0, "b" -> 0.1, "c" -> 0.5, "d" -> 0.9))
      assert(m.phases == 2)
      assert(m.current == "b")
      val pre = m.switches
      var guard = 0
      while (m.switches == pre && guard < 20) {
        m.observe(s => if (s == "b") 1.0 else 0.0); guard += 1
      }
      if (m.current == "c") pickedC += 1
    }
    assert(pickedC >= 45, s"expected the predictor to strongly favor c; got $pickedC/50")
  }

  test("uniform transitions (gamma=0) spread choices") {
    // seed each trial from a master RNG: java.util.Random's first draw is
    // heavily biased for small consecutive seeds
    val master = new Random(99)
    var pickedB = 0
    for (_ <- 1 to 60) {
      val m = mts(Seq("a", "b", "c"), alpha = 3, gamma = 0.0, seed = master.nextLong())
      for (_ <- 1 to 3) m.observe(Map("a" -> 1.0, "b" -> 0.0, "c" -> 0.0))
      if (m.current == "b") pickedB += 1
    }
    // roughly half of runs should pick b (choice between b and c)
    assert(pickedB > 10 && pickedB < 50, s"got $pickedB/60")
  }

  test("empirical competitiveness: within 2·H(n) of the true offline optimum") {
    // Oblivious adversary: a fixed random cost sequence. The offline optimum
    // is computed exactly by DP; the averaged online cost must respect the
    // 2·H(n) competitive ratio of Theorem IV.1 (plus small-sample slack).
    val n = 6
    val alpha = 4.0
    val steps = 1500
    val states = (0 until n).map(i => s"s$i")
    val costRng = new Random(123)
    val seq: IndexedSeq[Array[Double]] = IndexedSeq.fill(steps) {
      Array.fill(n)(if (costRng.nextDouble() < 0.3) 1.0 else 0.0)
    }

    // exact offline optimum via DP over (time, state)
    var dp = Array.fill(n)(0.0)
    for (t <- 0 until steps) {
      val minPrev = dp.min
      dp = Array.tabulate(n)(s => math.min(dp(s), minPrev + alpha) + seq(t)(s))
    }
    val offline = dp.min

    val onlineCosts = (1 to 5).map { seed =>
      val m = new DUmts[String](alpha, 0.0, new Random(seed), states)
      var cost = 0.0
      for (t <- 0 until steps) {
        val pre = m.current
        m.observe(s => seq(t)(s.drop(1).toInt))
        cost += seq(t)(pre.drop(1).toInt)
      }
      cost + m.switches * alpha
    }
    val online = onlineCosts.sum / onlineCosts.size
    val h = (1 to n).map(1.0 / _).sum
    val bound = 2.0 * h * offline + 4 * alpha // additive slack for edge phases
    assert(online <= bound, s"online=$online offline=$offline bound=$bound")
    assert(online >= offline, "online can never beat the offline optimum on average")
  }

  test("observe rejects NaN, infinite and out-of-range costs") {
    for (bad <- Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity, -0.01, 1.01)) {
      val m = mts(Seq("a", "b"), alpha = 5)
      withClue(bad)(assertThrows[IllegalArgumentException](m.observe(Map("a" -> 0.5, "b" -> bad))))
    }
    val m = mts(Seq("a", "b"), alpha = 5)
    m.observe(Map("a" -> 0.0, "b" -> 1.0)) // both ends of [0, 1] are accepted
  }

  test("observe returns the post-move state") {
    val m = mts(Seq("a", "b"), alpha = 1)
    val s = m.observe(Map("a" -> 1.0, "b" -> 0.0))
    assert(s == m.current && s == "b")
  }

  /** A seeded 2 000-step schedule with state churn: each step may add a
    * fresh state or remove a random one (the current one included), then
    * observes one cost per state; returns the solver and the state it is in
    * after every step.
    */
  private def churn(seed: Long, gamma: Double): (DUmts[String], Vector[String]) = {
    val sched = new Random(seed)
    val m = new DUmts[String](3.0, gamma, new Random(seed + 100), Seq("s0", "s1", "s2"))
    var next = 3
    val visited = Vector.newBuilder[String]
    for (_ <- 1 to 2000) {
      sched.nextInt(25) match {
        case 0 => m.addState(s"s$next"); next += 1
        case 1 if m.states.size > 2 =>
          val sorted = m.states.toSeq.sortBy(_.drop(1).toInt)
          m.removeState(sorted(sched.nextInt(sorted.size)))
        case _ =>
      }
      val costs = m.states.toSeq.sortBy(_.drop(1).toInt).map { s =>
        s -> math.min(1.0, (s.drop(1).toInt % 5) / 5.0 + 0.4 * sched.nextDouble())
      }.toMap
      visited += m.observe(costs)
    }
    (m, visited.result())
  }

  test("seeded churn schedules visit the pinned states") {
    // (seed, γ) -> (switches, phases, final current, final states, digest of
    // the state after every step)
    val pins = Seq(
      (11L, 0.0) -> ((61, 184, "s75", Seq(63, 68, 69, 73, 75, 76, 77, 79, 80, 81, 83, 85), 2000495577)),
      (12L, 1.0) -> ((36, 150, "s70", Seq(63, 68, 70, 72, 73), -397876538)),
      (13L, 2.0) -> ((34, 168, "s70", Seq(54, 56, 63, 64, 65, 66, 70, 71, 72, 73), 1021702242)))
    for (((seed, gamma), (switches, phases, current, states, digest)) <- pins) withClue(s"seed $seed: ") {
      val (m, visited) = churn(seed, gamma)
      assert(m.switches == switches)
      assert(m.phases == phases)
      assert(m.current == current)
      assert(m.states == states.map(i => s"s$i").toSet)
      assert(MurmurHash3.orderedHash(visited) == digest)
    }
  }
}
