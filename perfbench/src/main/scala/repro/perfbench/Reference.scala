package repro.perfbench

/** Pinned logical results (query cost, reorg cost, switches) per strategy,
  * for seed 1 at full size, as the program computes them today. The data
  * generators draw per Spark partition, so these hold for the benchmark's
  * session settings (`Main.Cores` local cores, `Ctx.ShufflePartitions`).
  * A change that moves any of them fails a check; if the change is meant
  * to, it re-pins them and says why.
  */
object Reference {
  val sim: Map[(String, Long, Double), Map[String, (Double, Double, Int)]] = Map(
    ("replay-tpch", 1L, 1.0) -> Map(
      "Static" -> ((1159.1344166666765, 0.0, 0)),
      "Greedy" -> ((1960.3304583333306, 1040.0, 13)),
      "Regret" -> ((1883.973308333345, 640.0, 8)),
      "OREO" -> ((1398.6811388888827, 640.0, 8)),
      "MTS Optimal" -> ((1229.8741638888912, 1813.3333333333333, 23)),
      "Offline Optimal" -> ((364.81298333333365, 1040.0, 13))))
}
