package repro.bench

import repro.SparkSpec
import repro.exp.{Datasets, Figure3Exp}

/** Figure 3: total query + reorganization cost of Static / Greedy / Regret /
  * OREO with Qd-tree and Z-order layout generation, on all three datasets.
  *
  * Paper findings (§VI-B): with Qd-trees, OREO improves on Static by 32.5%
  * (TPCH), 18.6% (TPCDS) and 10.8% (Telemetry); Greedy has the smallest
  * query cost but the largest reorganization cost; Regret is the most
  * conservative; Z-order layouts skip less than Qd-trees; OREO achieves the
  * best overall cost in all but one case.
  *
  * Costs here are logical (fraction-of-data units, the paper's proxy used
  * throughout its §VI-D); Table I provides the measured seconds-per-unit
  * conversion for end-to-end time (see EXPERIMENTS.md).
  */
class Figure3Bench extends SparkSpec {

  private lazy val results =
    Datasets.all.map(ds => ds.name -> Figure3Exp.runDataset(BenchSetups(ds)))
      .toMap

  test("Figure 3: full grid runs and prints") {
    println("=== Figure 3 (measured, logical cost units) ===")
    println(Figure3Exp.format(Datasets.all.map(ds => results(ds.name))))
  }

  test("OREO beats Static with qd-trees on a majority of datasets") {
    val wins = Datasets.all.count { ds =>
      val r = results(ds.name)
      r("OREO", "qdtree").totalCost < r("Static", "qdtree").totalCost
    }
    assert(wins >= 2, s"OREO should beat Static on most datasets; won $wins/3")
  }

  test("Greedy has the smallest query cost and the largest reorg cost") {
    for (ds <- Datasets.all; gen <- Seq("qdtree")) {
      val r = results(ds.name)
      val g = r("Greedy", gen)
      assert(g.queryCost <= r("OREO", gen).queryCost * 1.02, s"${ds.name}/$gen query")
      assert(g.queryCost <= r("Regret", gen).queryCost * 1.02, s"${ds.name}/$gen query")
      assert(g.reorgCost >= r("OREO", gen).reorgCost * 0.98, s"${ds.name}/$gen reorg")
      assert(g.reorgCost >= r("Regret", gen).reorgCost * 0.98, s"${ds.name}/$gen reorg")
    }
  }

  test("Regret is the most conservative online strategy") {
    for (ds <- Datasets.all) {
      val r = results(ds.name)
      assert(r("Regret", "qdtree").switches <= r("Greedy", "qdtree").switches, ds.name)
    }
  }

  test("Z-order layouts skip less than qd-tree layouts (static query cost)") {
    val worse = Datasets.all.count { ds =>
      val r = results(ds.name)
      r("Static", "zorder").queryCost >= r("Static", "qdtree").queryCost
    }
    assert(worse >= 2, s"z-order should usually trail qd-tree; did on $worse/3")
  }

  test("OREO achieves the best total cost in most configurations") {
    var best = 0; var total = 0
    for (ds <- Datasets.all; gen <- Seq("qdtree", "zorder")) {
      total += 1
      val r = results(ds.name)
      val oreo = r("OREO", gen).totalCost
      if (Seq("Greedy", "Regret").forall(m => oreo <= r(m, gen).totalCost * 1.02)) best += 1
    }
    assert(best >= total - 2, s"OREO best-or-near-best in $best/$total cases")
  }
}
