package repro.exp

import repro.core.CandidateStream.SW
import repro.core._
import repro.layout.{LayoutGen, QdTreeGen, ZOrderGen}

/** Figure 3 reproduction: total query + reorganization cost of Static,
  * Greedy, Regret and OREO, for Qd-tree and Z-order layout generation, on
  * the three datasets.
  *
  * Costs are logical (fraction-of-data units; the paper's own proxy).
  */
object Figure3Exp {

  final case class Cell(method: String, gen: String, queryCost: Double,
                        reorgCost: Double, switches: Int) {
    def totalCost: Double = queryCost + reorgCost
  }

  final case class DatasetResult(dataset: String, cells: Seq[Cell]) {
    def apply(method: String, gen: String): Cell =
      cells.find(c => c.method == method && c.gen == gen).get
  }

  def runDataset(setup: Lab.Setup, alpha: Double = 80, epsilon: Double = 0.08,
                 gens: Seq[LayoutGen] = Seq(QdTreeGen, ZOrderGen),
                 seeds: Seq[Long] = Seq(1L, 2L, 3L)): DatasetResult = {
    import setup.{default, workload}
    val cells = for (gen <- gens) yield {
      val candidates = setup.candidates(gen, SW)
      val static = Lab.staticState(setup.data, workload, gen, setup.k)

      val staticRes = Simulator.run(workload, static, Nil, new StaticStrategy(static), alpha)
      val greedyRes = Simulator.run(workload, default, candidates,
        new GreedyStrategy(default), alpha)
      val regretRes = Simulator.run(workload, default, candidates,
        new RegretStrategy(default, alpha), alpha)
      val oreoRes = Lab.oreoAvg(workload, default, candidates, alpha, 1.0, epsilon, 0, seeds)

      Seq(staticRes, greedyRes, regretRes, oreoRes).map { r =>
        Cell(r.name, gen.name, r.queryCost, r.reorgCost, r.switches)
      }
    }
    DatasetResult(setup.ds.name, cells.flatten)
  }

  def format(results: Seq[DatasetResult]): String = {
    val sb = new StringBuilder
    sb.append(f"${"dataset"}%-10s ${"gen"}%-8s ${"method"}%-8s ${"query"}%-10s ${"reorg"}%-10s ${"total"}%-10s ${"switches"}%-8s\n")
    for (dr <- results; c <- dr.cells)
      sb.append(f"${dr.dataset}%-10s ${c.gen}%-8s ${c.method}%-8s ${c.queryCost}%-10.1f ${c.reorgCost}%-10.1f ${c.totalCost}%-10.1f ${c.switches}%-8d\n")
    sb.toString
  }
}
