package repro.exp

import java.nio.file.Files
import repro.SparkSpec
import repro.core.CandidateStream.{RS, SW, SWRS}
import repro.core._
import repro.layout.{QdTreeGen, ZOrderGen}
import repro.workload.Workload
import scala.util.Random

/** Wiring tests for the table/figure harnesses at miniature scale; the
  * full-scale runs live in the bench/ suites.
  */
class ExpHarnessSpec extends SparkSpec {

  /** One TPCH set-up (400 queries) shared by every harness below. */
  private lazy val tpch = Lab.setup(spark, Datasets.tpch, sf = 0.003, scale = 0.04)

  private lazy val grid = TableIIExp.run(Seq(tpch), alpha = 40, seeds = Seq(1L))

  test("TableIIExp runs the grid and fills every cell") {
    for (row <- TableIIExp.rows) {
      val c = grid(row.label, "TPCH")
      assert(c.queryCost > 0)
      assert(c.reorgCost >= 0)
    }
    val txt = TableIIExp.format(grid)
    assert(txt.contains("default") && txt.contains("gamma=0"))
  }

  test("TableIIExp gives the pinned (query, reorg, switches) on every row") {
    // The data generators draw per Spark partition, so the values hold for
    // a 4-way local session only. Sharing the set-up and its streams and
    // running equal configurations once must not change a bit of them.
    assume(spark.sparkContext.defaultParallelism == 4, "pinned for local[4]")
    val pinned = Map(
      "default"  -> (0.7626697222222181, 0.44, 11),
      "gamma=0"  -> (0.7518194444444404, 0.36, 9),
      "gamma=2"  -> (0.7619699999999954, 0.44, 11),
      "gamma=3"  -> (0.7631014999999954, 0.48, 12),
      "SW"       -> (0.7626697222222181, 0.44, 11),
      "RS"       -> (0.7699024999999956, 0.28, 7),
      "SW+RS"    -> (0.78452022222222, 0.48, 12),
      "delta=0"  -> (0.7626697222222181, 0.44, 11),
      "delta=40" -> (0.8392208888888852, 0.44, 11),
      "delta=80" -> (0.8532304444444411, 0.44, 11))
    for (row <- TableIIExp.rows) {
      val c = grid(row.label, "TPCH")
      assert((c.queryCost / 1e3, c.reorgCost / 1e3, c.switches) == pinned(row.label), row.label)
    }
  }

  test("TableIIExp: default and the SW row coincide") {
    val r = TableIIExp.run(Seq(tpch), alpha = 40, seeds = Seq(2L))
    assert(r("default", "TPCH") == r("SW", "TPCH"))
    assert(r("default", "TPCH") == r("delta=0", "TPCH"))
  }

  test("replays give == results on states warmed by other streams and on fresh copies") {
    // A second stream of the same length reuses every query id with other
    // queries, so a memoized cost read for the wrong query would show here.
    val other = Datasets.tpch.mkWorkload(tpch.workload.size, Datasets.tpch.paperSegments, 7)
    assert(other.queries.map(_.id) == tpch.workload.queries.map(_.id))
    assert(other.queries != tpch.workload.queries)
    val static = tpch.static(QdTreeGen)
    val best = tpch.best(QdTreeGen)
    val alpha = 40.0

    def replayAll(w: Workload, fresh: Boolean): Seq[SimResult] = {
      def f(s: LayoutState) = if (fresh) s.copy() else s
      val init = f(tpch.default)
      val cands = tpch.candidates(QdTreeGen, SW).map(c => c.copy(state = f(c.state)))
      val oracles = best.map { case (t, s) => t -> f(s) }
      val st = f(static)
      Seq(
        Simulator.run(w, st, Nil, new StaticStrategy(st), alpha),
        Simulator.run(w, init, cands, new GreedyStrategy(init), alpha),
        Simulator.run(w, init, cands, new RegretStrategy(init, alpha), alpha),
        Lab.runOreo(w, init, cands, alpha, Lab.Gamma, Lab.Epsilon, 0, seed = 1)._1,
        Simulator.run(w, init, Nil,
          new MtsOptimalStrategy(init, oracles.toSeq.sortBy(_._1).map(_._2), alpha, Lab.Gamma, new Random(1)), alpha),
        Simulator.offlineOptimal(w, init, oracles, alpha))
    }

    val ref = replayAll(tpch.workload, fresh = true)
    val refOther = replayAll(other, fresh = true)
    assert(ref.map(_.name).distinct.size == 6)
    assert(ref != refOther)
    for (w <- Seq(other, tpch.workload, tpch.workload, other, tpch.workload)) {
      val expected = if (w eq other) refOther else ref
      assert(replayAll(w, fresh = false) == expected)
    }
  }

  test("Setup builds the Static and per-template best states once per generator") {
    // a state's id and partition metadata, which its costs are computed from
    def view(s: LayoutState) = (s.id, s.metadata.partitions)
    for (gen <- Seq(QdTreeGen, ZOrderGen)) {
      val static = Lab.staticState(tpch.data, tpch.workload, gen, Lab.K)
      val best = Lab.templateBest(tpch.data, tpch.ds, gen, Lab.K)
      assert(tpch.static(gen) eq tpch.static(gen), gen.name)
      assert(tpch.best(gen) eq tpch.best(gen), gen.name)
      assert(view(tpch.static(gen)) == view(static), gen.name)
      assert(tpch.best(gen).view.mapValues(view).toMap == best.view.mapValues(view).toMap, gen.name)
      assert(tpch.static(gen).layout == static.layout, gen.name)
      assert(tpch.best(gen).view.mapValues(_.layout).toMap == best.view.mapValues(_.layout).toMap, gen.name)
    }
  }

  test("Setup: the SW+RS stream interleaves the SW and RS streams") {
    val sw = tpch.candidates(QdTreeGen, SW)
    val rs = tpch.candidates(QdTreeGen, RS)
    val both = tpch.candidates(QdTreeGen, SWRS)
    assert(sw.nonEmpty && sw.size == rs.size)
    assert(both.map(_.state.id).sorted == (sw ++ rs).map(_.state.id).sorted)
    assert(both.map(_.state.id).distinct.size == both.size)
    for ((Seq(a, b), e) <- both.grouped(2).toSeq.zipWithIndex) {
      assert(a.state.id == s"qdtree-sw-${e + 1}" && b.state.id == s"qdtree-rs-${e + 1}")
      assert(a.atQuery == b.atQuery)
    }
  }

  test("Figure3Exp covers all four methods and both generators") {
    val dr = Figure3Exp.runDataset(tpch, alpha = 40, seeds = Seq(1L))
    assert(dr.cells.map(_._2.name).toSet == Set("Static", "Greedy", "Regret", "OREO"))
    assert(dr.cells.map(_._1).toSet == Set("qdtree", "zorder"))
    assert(Figure3Exp.format(Seq(dr)).contains("OREO"))
  }

  test("GapExp orders the oracles sensibly") {
    val r = GapExp.run(tpch, alpha = 40, seeds = Seq(1L))
    assert(r.offline.queryCost <= r.mtsOpt.queryCost * 1.05)
    assert(r.offline.queryCost <= r.oreo.queryCost * 1.05)
    assert(GapExp.format(Seq(r)).contains("Offline"))
  }

  test("SweepExp alpha sweep reduces switches as alpha grows") {
    val ps = SweepExp.alphaSweep(tpch, alphas = Seq(5, 200), seeds = Seq(1L))
    assert(ps.size == 2)
    assert(ps.head.switches >= ps.last.switches)
    assert(SweepExp.formatAlpha(ps).nonEmpty)
  }

  test("SweepExp epsilon sweep shrinks the state space as epsilon grows") {
    val ps = SweepExp.epsilonSweep(tpch, epsilons = Seq(0.0, 0.9), alpha = 40, seeds = Seq(1L))
    assert(ps.head.maxStates >= ps.last.maxStates)
    assert(SweepExp.formatEps(ps).nonEmpty)
  }

  test("TableIExp measures plausible physical timings") {
    // At 20k rows both timings sit at Spark's fixed per-job overhead floor,
    // so only wiring is asserted here; the α >> 1 claim is measured at real
    // file sizes in bench/TableIBench.
    val dir = Files.createTempDirectory("tableI").toString
    val row = TableIExp.measure(spark, rows = 20000, workDir = dir, k = 8, reps = 1)
    assert(row.fileMb > 0)
    assert(row.querySec > 0 && row.reorgSec > 0)
    assert(row.alpha > 0.2, s"reorg far cheaper than a scan is a wiring bug: $row")
    assert(TableIExp.format(Seq(row)).contains("alpha"))
  }
}
