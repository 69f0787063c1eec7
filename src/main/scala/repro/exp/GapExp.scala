package repro.exp

import repro.core.CandidateStream.SW
import repro.core._
import repro.layout.QdTreeGen
import scala.util.Random

/** Figure 4 reproduction: gap between OREO (dynamic state space), the
  * MTS-Optimal oracle (fixed state space of per-template best layouts) and
  * the Offline-Optimal oracle (switches exactly at template changes).
  * Paper finding: OREO's query cost is within 14–17% of MTS Optimal and
  * 44–74% above Offline Optimal, with comparable layout-change counts.
  */
object GapExp {

  final case class Result(dataset: String, oreo: SimResult, mtsOpt: SimResult,
                          offline: SimResult) {
    def oreoVsMtsQueryGap: Double = oreo.queryCost / mtsOpt.queryCost - 1
    def oreoVsOfflineQueryGap: Double = oreo.queryCost / offline.queryCost - 1
  }

  def run(setup: Lab.Setup, alpha: Double = Lab.Alpha, seeds: Seq[Long] = Lab.Seeds): Result = {
    import setup.{default, workload}
    val candidates = setup.candidates(QdTreeGen, SW)
    val best = setup.best(QdTreeGen)

    val oreo = Lab.oreoAvg(workload, default, candidates, alpha, Lab.Gamma, Lab.Epsilon, 0, seeds)
    val mtsOpt = Lab.avg(seeds.map { s =>
      Simulator.run(workload, default, Nil,
        new MtsOptimalStrategy(default, best.values.toSeq, alpha, Lab.Gamma, new Random(s)), alpha)
    })
    val offline = Simulator.offlineOptimal(workload, default, best, alpha)
    Result(setup.ds.name, oreo, mtsOpt, offline)
  }

  def format(rs: Seq[Result]): String = {
    val sb = new StringBuilder
    sb.append(f"${"dataset"}%-10s ${"method"}%-16s ${"query"}%-10s ${"reorg"}%-10s ${"total"}%-10s ${"changes"}%-8s\n")
    for (r <- rs; m <- Seq(r.offline, r.mtsOpt, r.oreo))
      sb.append(f"${r.dataset}%-10s ${m.name}%-16s ${m.queryCost}%-10.1f ${m.reorgCost}%-10.1f ${m.totalCost}%-10.1f ${m.switches}%-8d\n")
    for (r <- rs)
      sb.append(f"${r.dataset}: OREO query cost vs MTS-Opt ${r.oreoVsMtsQueryGap * 100}%+.1f%%, vs Offline-Opt ${r.oreoVsOfflineQueryGap * 100}%+.1f%%\n")
    sb.toString
  }
}
