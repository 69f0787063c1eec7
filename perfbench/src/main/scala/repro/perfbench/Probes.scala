package repro.perfbench

import repro.core._
import scala.util.Random

/** Isolated layer timings of a traced run. Each runs after the pipeline,
  * on the workload's own data, layouts and queries, a fixed number of times.
  */
object Probes {

  /** Query sample shared by the probes (fixed size, drawn from the stream). */
  private def sample(queries: Seq[Query], n: Int, seed: Long): IndexedSeq[Query] = {
    val rng = new Random(seed)
    IndexedSeq.fill(n)(queries(rng.nextInt(queries.size)))
  }

  def run(m: Metrics, data: DataMatrix, states: Seq[LayoutState], queries: Seq[Query],
          seed: Long, scale: Double): Unit = {
    val reps = math.max(1, (4 * scale).round.toInt)
    val qs = sample(queries, 200, seed + 7)

    // cost: c(s,q) over every state x the query sample
    val evals = states.size.toLong * qs.size * reps
    var sink = 0.0
    val t0 = System.nanoTime()
    for (_ <- 0 until reps; s <- states; q <- qs) sink += s.cost(q)
    val costNs = System.nanoTime() - t0
    m("cost.evals") = (evals.toDouble, "count")
    m("cost.ns_per_eval") = (costNs.toDouble / evals, "ns")
    m("cost.skip_frac") = (states.iterator.flatMap(s => qs.iterator.map(s.metadata.fractionPartitionsSkipped)).sum /
      (states.size * qs.size), "ratio")

    // dumts: steps over precomputed cost vectors, then state churn
    val ids = states.indices.take(12)
    val costs = qs.map(q => ids.map(i => states(i).cost(q)).toArray)
    val steps = math.max(1000, (20000 * scale).toInt)
    val umts = new DUmts[Int](80, 1.0, new Random(seed), ids)
    val t1 = System.nanoTime()
    var i = 0
    while (i < steps) { val v = costs(i % costs.size); umts.observe(s => v(s)); i += 1 }
    m("dumts.step_ns") = ((System.nanoTime() - t1).toDouble / steps, "ns")
    val churn = math.max(200, (5000 * scale).toInt)
    var next = ids.size
    val t2 = System.nanoTime()
    i = 0
    while (i < churn) {
      umts.addState(next)
      umts.removeState(umts.states.filter(_ != next).min)
      next += 1; i += 1
    }
    m("dumts.add_remove_us") = ((System.nanoTime() - t2).toDouble / churn / 1e3, "us")

    // rtbs: R-TBS insertions at the layout manager's sample size
    val rtbs = new Rtbs[Query](50, 2e-4, new Random(seed))
    val adds = math.max(10000, (400000 * scale).toInt)
    val t3 = System.nanoTime()
    i = 0
    while (i < adds) { rtbs.add(qs(i % qs.size)); i += 1 }
    m("rtbs.add_ns") = ((System.nanoTime() - t3).toDouble / adds, "ns")

    // metadata: driver-local metadata builds for up to 8 of the layouts
    val fm = new Samples
    for (s <- states.take(8); _ <- 0 until 2) fm.time(MetadataBuilder.fromMatrix(data, s.layout))
    m("metadata.from_matrix_ms_p50") = (fm.percentileNs(50) / 1e6, "ms")
    if (sink < 0) println(sink) // keeps the cost loop from being optimised away
  }
}
