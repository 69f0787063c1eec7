package repro.bench

import repro.SparkSpec
import repro.exp.{Datasets, SweepExp}

/** Figures 5 & 6: sensitivity of OREO to the reorganization cost α and the
  * admission distance threshold ε (TPCH).
  *
  * Paper findings: layout changes drop from 35 (α=10) to 18 (α=300) and the
  * gains of dynamic reorganization shrink (non-monotonically) as α grows;
  * larger ε shrinks the state space with only a slight query-cost increase —
  * overall performance is insensitive to ε.
  */
class SweepsBench extends SparkSpec {

  test("Figure 5: alpha sweep") {
    val ps = SweepExp.alphaSweep(BenchSetups(Datasets.tpch))
    println("=== Figure 5 (alpha sweep, TPCH) ===")
    println(SweepExp.formatAlpha(ps))
    println("paper: 35 changes at alpha=10 down to 18 at alpha=300")

    // switch count decreases (weakly) in alpha
    assert(ps.head.switches >= ps.last.switches,
      s"switches should fall with alpha: ${ps.map(p => p.alpha -> p.switches)}")
    // total cost grows with alpha (reorganization gets pricier)
    assert(ps.last.queryCost + ps.last.reorgCost >= ps.head.queryCost + ps.head.reorgCost * 0.5)
    // at low alpha, dynamic reorganization clearly beats the static query cost
    assert(ps.head.queryCost + ps.head.reorgCost < ps.head.staticTotal,
      s"alpha=10 total ${ps.head.queryCost + ps.head.reorgCost} vs static ${ps.head.staticTotal}")
  }

  test("Figure 6: epsilon sweep") {
    val ps = SweepExp.epsilonSweep(BenchSetups(Datasets.tpch))
    println("=== Figure 6 (epsilon sweep, TPCH) ===")
    println(SweepExp.formatEps(ps))
    println("paper: state space shrinks with epsilon; performance insensitive")

    // state space shrinks (weakly) as epsilon grows
    assert(ps.head.maxStates >= ps.last.maxStates,
      s"state space should shrink: ${ps.map(p => p.epsilon -> p.maxStates)}")
    // overall performance is not very sensitive: within 2x across the sweep
    val totals = ps.map(p => p.queryCost + p.reorgCost)
    assert(totals.max / totals.min < 2.0, s"totals=$totals")
  }
}
