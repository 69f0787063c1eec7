package repro.bench

import repro.SparkSpec
import repro.exp.{Datasets, GapExp}

/** Figure 4: gap between OREO (dynamic state space), MTS-Optimal (fixed
  * precomputed state space) and Offline-Optimal (perfect switch timing).
  *
  * Paper findings (§VI-C, TPCH & TPCDS): OREO's query costs are within
  * 14% / 17% of MTS-Optimal and 74% / 44% above Offline-Optimal — far
  * better than the worst-case O(log k) bound. Offline-Optimal makes 20
  * layout changes; OREO makes 22/29 and MTS-Optimal 27/30.
  */
class GapBench extends SparkSpec {

  private lazy val results =
    Seq(Datasets.tpch, Datasets.tpcds).map(ds => GapExp.run(BenchSetups(ds)))

  test("Figure 4: gap-to-optimal runs and prints") {
    println("=== Figure 4 (measured, logical cost units) ===")
    println(GapExp.format(results))
    println("paper: OREO query cost +14%/+17% vs MTS-Opt; +74%/+44% vs Offline-Opt")
  }

  test("Offline-Optimal lower-bounds both online oracles") {
    for (r <- results) {
      assert(r.offline.queryCost <= r.mtsOpt.queryCost * 1.02, r.dataset)
      assert(r.offline.queryCost <= r.oreo.queryCost * 1.02, r.dataset)
    }
  }

  test("OREO is close to MTS-Optimal (workload knowledge helps, but not much)") {
    for (r <- results)
      assert(r.oreoVsMtsQueryGap < 0.6,
        s"${r.dataset}: OREO ${r.oreo.queryCost} vs MTS-Opt ${r.mtsOpt.queryCost}")
  }

  test("OREO is within a small constant factor of Offline-Optimal") {
    for (r <- results)
      assert(r.oreoVsOfflineQueryGap < 2.0,
        s"${r.dataset}: gap ${r.oreoVsOfflineQueryGap} should be far below the O(log k) worst case")
  }

  test("Offline-Optimal changes layouts once per template switch") {
    for (r <- results) {
      // 20 segments; the first may reuse the default only if it matches
      assert(r.offline.switches <= 20 && r.offline.switches >= 15, r.dataset)
    }
  }

  test("online methods make the same order of layout changes as offline") {
    for (r <- results) {
      assert(r.oreo.switches >= r.offline.switches / 2, r.dataset)
      assert(r.oreo.switches <= r.offline.switches * 5, r.dataset)
    }
  }
}
