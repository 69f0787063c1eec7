package repro.exp

import repro.core.CandidateStream.SW
import repro.core._
import repro.layout.{QdTreeGen, ZOrderGen}

/** Figure 3 reproduction: total query + reorganization cost of Static,
  * Greedy, Regret and OREO, for Qd-tree and Z-order layout generation, on
  * the three datasets.
  *
  * Costs are logical (fraction-of-data units; the paper's own proxy).
  */
object Figure3Exp {

  /** One dataset's results: per layout generator, one result per method. */
  final case class DatasetResult(dataset: String, cells: Seq[(String, SimResult)]) {
    def apply(method: String, gen: String): SimResult =
      cells.collectFirst { case (g, r) if g == gen && r.name == method => r }.get
  }

  def runDataset(setup: Lab.Setup, alpha: Double = Lab.Alpha,
                 seeds: Seq[Long] = Lab.Seeds): DatasetResult = {
    import setup.{default, workload}
    val cells = for (gen <- Seq(QdTreeGen, ZOrderGen)) yield {
      val candidates = setup.candidates(gen, SW)
      val static = setup.static(gen)

      val staticRes = Simulator.run(workload, static, Nil, new StaticStrategy(static), alpha)
      val greedyRes = Simulator.run(workload, default, candidates,
        new GreedyStrategy(default), alpha)
      val regretRes = Simulator.run(workload, default, candidates,
        new RegretStrategy(default, alpha), alpha)
      val oreoRes = Lab.oreoAvg(workload, default, candidates, alpha, Lab.Gamma, Lab.Epsilon, 0, seeds)

      Seq(staticRes, greedyRes, regretRes, oreoRes).map(gen.name -> _)
    }
    DatasetResult(setup.ds.name, cells.flatten)
  }

  def format(results: Seq[DatasetResult]): String = {
    val sb = new StringBuilder
    sb.append(f"${"dataset"}%-10s ${"gen"}%-8s ${"method"}%-8s ${"query"}%-10s ${"reorg"}%-10s ${"total"}%-10s ${"switches"}%-8s\n")
    for (dr <- results; (gen, r) <- dr.cells)
      sb.append(f"${dr.dataset}%-10s ${gen}%-8s ${r.name}%-8s ${r.queryCost}%-10.1f ${r.reorgCost}%-10.1f ${r.totalCost}%-10.1f ${r.switches}%-8d\n")
    sb.toString
  }
}
