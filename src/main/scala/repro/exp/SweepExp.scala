package repro.exp

import repro.core.CandidateStream.SW
import repro.layout.QdTreeGen

/** Figures 5 & 6 reproduction: sensitivity of OREO to the reorganization
  * cost α (Fig 5: larger α ⇒ fewer layout changes, shrinking gains) and to
  * the admission distance threshold ε (Fig 6: larger ε ⇒ smaller state
  * space, slightly higher query cost; overall insensitive).
  */
object SweepExp {

  final case class AlphaPoint(alpha: Double, queryCost: Double, reorgCost: Double,
                              switches: Int, staticTotal: Double)
  final case class EpsPoint(epsilon: Double, queryCost: Double, reorgCost: Double,
                            switches: Int, maxStates: Int)

  def alphaSweep(setup: Lab.Setup, alphas: Seq[Double] = Seq(10, 20, 40, 80, 170, 300),
                 seeds: Seq[Long] = Lab.Seeds): Seq[AlphaPoint] = {
    import setup.{default, workload}
    val candidates = setup.candidates(QdTreeGen, SW)
    val static = setup.static(QdTreeGen)
    val staticQuery = workload.queries.iterator.map(static.cost).sum
    alphas.map { a =>
      val r = Lab.oreoAvg(workload, default, candidates, a, Lab.Gamma, Lab.Epsilon, 0, seeds)
      AlphaPoint(a, r.queryCost, r.reorgCost, r.switches, staticQuery)
    }
  }

  def epsilonSweep(setup: Lab.Setup,
                   epsilons: Seq[Double] = Seq(0.01, 0.02, 0.04, 0.08, 0.16, 0.32),
                   alpha: Double = Lab.Alpha, seeds: Seq[Long] = Lab.Seeds): Seq[EpsPoint] = {
    import setup.{default, workload}
    val candidates = setup.candidates(QdTreeGen, SW)
    epsilons.map { e =>
      val runs = seeds.map(s => Lab.runOreo(workload, default, candidates, alpha, Lab.Gamma, e, 0, s))
      val r = Lab.avg(runs.map(_._1))
      val maxStates = runs.map(_._2.maxStateSpaceSize).max
      EpsPoint(e, r.queryCost, r.reorgCost, r.switches, maxStates)
    }
  }

  def formatAlpha(ps: Seq[AlphaPoint]): String = {
    val sb = new StringBuilder
    sb.append(f"${"alpha"}%-8s ${"query"}%-10s ${"reorg"}%-10s ${"total"}%-10s ${"switches"}%-8s ${"static q"}%-10s\n")
    for (p <- ps)
      sb.append(f"${p.alpha}%-8.0f ${p.queryCost}%-10.1f ${p.reorgCost}%-10.1f ${p.queryCost + p.reorgCost}%-10.1f ${p.switches}%-8d ${p.staticTotal}%-10.1f\n")
    sb.toString
  }

  def formatEps(ps: Seq[EpsPoint]): String = {
    val sb = new StringBuilder
    sb.append(f"${"epsilon"}%-8s ${"query"}%-10s ${"reorg"}%-10s ${"switches"}%-8s ${"maxStates"}%-9s\n")
    for (p <- ps)
      sb.append(f"${p.epsilon}%-8.2f ${p.queryCost}%-10.1f ${p.reorgCost}%-10.1f ${p.switches}%-8d ${p.maxStates}%-9d\n")
    sb.toString
  }
}
