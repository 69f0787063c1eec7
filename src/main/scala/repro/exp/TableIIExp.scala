package repro.exp

import repro.core.{CandidateStream, SimResult}
import repro.core.CandidateStream.{RS, SW, SWRS}
import repro.layout.QdTreeGen

/** Table II reproduction: impact of the transition distribution (γ), of the
  * candidate-generation source (sliding window vs reservoir sampling), and
  * of the reorganization delay (Δ) on the MTS algorithm, in logical costs
  * from simulation (printed in units of 10³), for TPCH / TPCDS / Telemetry.
  *
  * Paper defaults (bold rows): γ=1, SW, Δ=0, with α=80, ε=0.08, window=200.
  */
object TableIIExp {

  /** One configuration row of the table. */
  final case class RowSpec(label: String, source: CandidateStream.Source,
                           gamma: Double, delay: Int)

  val rows: Seq[RowSpec] = Seq(
    RowSpec("default", SW, Lab.Gamma, 0),
    RowSpec("gamma=0", SW, 0, 0),
    RowSpec("gamma=2", SW, 2, 0),
    RowSpec("gamma=3", SW, 3, 0),
    RowSpec("SW",      SW, Lab.Gamma, 0),
    RowSpec("RS",      RS, Lab.Gamma, 0),
    RowSpec("SW+RS",   SWRS, Lab.Gamma, 0),
    RowSpec("delta=0", SW, Lab.Gamma, 0),
    RowSpec("delta=40", SW, Lab.Gamma, 40),
    RowSpec("delta=80", SW, Lab.Gamma, 80),
  )

  final case class Result(cells: Map[(String, String), SimResult], datasets: Seq[String]) {
    def apply(row: String, ds: String): SimResult = cells((row, ds))
  }

  /** Run the full grid, one column per set-up; each distinct configuration
    * runs once per set-up (the `default`, `SW` and `delta=0` rows share one).
    */
  def run(setups: Seq[Lab.Setup], alpha: Double = Lab.Alpha, seeds: Seq[Long] = Lab.Seeds): Result = {
    val cells = for {
      setup <- setups
      ((source, gamma, delay), same) <- rows.groupBy(r => (r.source, r.gamma, r.delay))
    } yield {
      val res = Lab.oreoAvg(setup.workload, setup.default, setup.candidates(QdTreeGen, source),
        alpha, gamma, Lab.Epsilon, delay, seeds)
      same.map(row => (row.label, setup.ds.name) -> res)
    }
    Result(cells.flatten.toMap, setups.map(_.ds.name))
  }

  /** Render the measured grid in the paper's layout, costs in units of 10³. */
  def format(r: Result): String = {
    val sb = new StringBuilder
    sb.append(f"${"row"}%-10s | ${"Query Cost (x10^3)"}%-34s | ${"Reorg Cost (x10^3)"}%-34s\n")
    sb.append(f"${""}%-10s | ${r.datasets.map(d => f"$d%-10s").mkString(" ")} | " +
      s"${r.datasets.map(d => f"$d%-10s").mkString(" ")}\n")
    for (row <- rows) {
      val q = r.datasets.map(d => f"${r(row.label, d).queryCost / 1e3}%-10.2f").mkString(" ")
      val g = r.datasets.map(d => f"${r(row.label, d).reorgCost / 1e3}%-10.2f").mkString(" ")
      sb.append(f"${row.label}%-10s | $q | $g\n")
    }
    sb.toString
  }
}
