package repro.perfbench

import repro.core.CandidateStream.{GenConfig, SW}
import repro.core._
import repro.exp.{Datasets, Lab}
import repro.layout.QdTreeGen
import repro.workload.{Workload => Stream}
import scala.util.Random

/** Times OREO's per-query decision (`observe`) and each candidate offer by
  * delegating to the real strategy.
  */
final class TimedOreo(val inner: OreoStrategy, decide: Samples, offer: Samples, tracer: Tracer)
    extends Strategy {
  override def name: String = inner.name
  override def observe(q: Query): Option[LayoutState] = decide.time(inner.observe(q))
  override def onCandidate(c: LayoutState): Option[LayoutState] =
    tracer.span("manager.on_candidate")(offer.time(inner.onCandidate(c)))
  override def current: LayoutState = inner.current
}

object SimWorkload {
  /** Scale factor of the dataset: 120k TPCH-lite rows. */
  val SF = 0.02

  /** The stream: one round over the templates, each template one segment
    * of this many queries (at scale 1).
    */
  val SegmentLength = 200

  /** A Qd-tree candidate from the sliding window every this many queries. */
  val Every = 200

  /** OREO's admission threshold. */
  val Epsilon = 0.08

  /** The paper's reorganization cost α, transition weight γ, partitions per
    * layout k, and the seeds of the randomized strategies (3-run averages).
    */
  val Alpha = 80.0
  val Gamma = 1.0
  val K = 32
  val Seeds = Seq(1L, 2L, 3L)
}

/** Strategy replays over a simulated TPCH-lite query stream: Static, Greedy,
  * Regret, OREO, MTS-Optimal and Offline-Optimal, the line-up of Figures 3
  * and 4, with Qd-tree candidates from the sliding window.
  */
final class SimWorkload extends Workload {
  import SimWorkload._
  override val name = "replay-tpch"
  private val ds = Datasets.tpch

  private var data: DataMatrix = _
  private var stream: Stream = _
  private var gen: TimedLayoutGen = _
  // the initial layout and the oracles' best layout per template; neither
  // depends on the stream
  private var default: LayoutState = _
  private var best: Map[Int, LayoutState] = Map.empty

  // outputs of the latest pass, checked after the measured region
  private var candidates: Vector[Candidate] = _
  private var results: Seq[SimResult] = Nil
  private val allResults = scala.collection.mutable.ArrayBuffer.empty[Seq[SimResult]]
  private var oreoStats: Seq[OreoStrategy] = Nil

  // counters behind the end-to-end metrics
  private var decide = new Samples
  private var offer = new Samples
  private var simQueries = 0L
  private var simNs = 0L

  private def sf(scale: Double): Double = math.max(0.001, SF * scale)
  private def segmentLength(scale: Double): Int = math.max(20, (SegmentLength * scale).toInt)

  override def setup(ctx: Ctx): Unit = {
    ctx.startSpark()
    data = ctx.tracer.span("data.collect")(Lab.matrix(ctx.spark, ds, sf(ctx.scale)))
    stream = ctx.tracer.span("workload.gen")(
      Streams.rounds(ds.templates, 1, segmentLength(ctx.scale), ctx.seed))
    gen = new TimedLayoutGen(QdTreeGen, ctx.tracer)
    default = ctx.tracer.span("metadata.default")(Lab.defaultState(data, ds, K))
    best = ctx.tracer.span("layout.template_best")(Lab.templateBest(data, ds, gen, K))
  }

  override def resetCounters(): Unit = {
    decide = new Samples
    offer = new Samples
    simQueries = 0L
    simNs = 0L
    allResults.clear()
  }

  private def replay(ctx: Ctx, span: String)(run: => SimResult): SimResult =
    ctx.tracer.span(span) {
      val t0 = System.nanoTime()
      val r = run
      simNs += System.nanoTime() - t0
      simQueries += stream.size
      r
    }

  override def pass(ctx: Ctx): Unit = {
    val t = ctx.tracer
    val a = Alpha
    candidates = t.span("candidates.compute")(
      CandidateStream.compute(stream, data, gen, SW, GenConfig(every = Every, k = K)))

    val static = t.span("layout.static")(Lab.staticState(data, stream, gen, K))
    val baseline = Seq(
      replay(ctx, "replay.static")(Simulator.run(stream, static, Nil, new StaticStrategy(static), a)),
      replay(ctx, "replay.greedy")(Simulator.run(stream, default, candidates, new GreedyStrategy(default), a)),
      replay(ctx, "replay.regret")(Simulator.run(stream, default, candidates, new RegretStrategy(default, a), a)))

    // OREO wired exactly as Lab.runOreo does, with the strategy wrapped for timing
    val oreoRuns = t.span("replay.oreo")(Seeds.map { s =>
      val manager = new LayoutManager(Epsilon, rng = new Random(s * 31 + 7))
      val timed = new TimedOreo(new OreoStrategy(default, a, Gamma, manager, new Random(s)),
        decide, offer, t)
      (replay(ctx, "replay.oreo.seed")(Simulator.run(stream, default, candidates, timed, a, 0)), timed.inner)
    })
    oreoStats = oreoRuns.map(_._2)
    val oreo = Lab.avg(oreoRuns.map(_._1))

    val mts = t.span("replay.mts_optimal")(Lab.avg(Seeds.map { s =>
      replay(ctx, "replay.mts_optimal.seed")(Simulator.run(stream, default, Nil,
        new MtsOptimalStrategy(default, best.values.toSeq, a, Gamma, new Random(s)), a))
    }))
    val oracles = Seq(mts, replay(ctx, "replay.offline_optimal")(Simulator.offlineOptimal(stream, default, best, a)))
    results = baseline ++ Seq(oreo) ++ oracles
    allResults += results
  }

  private def oreo: SimResult = results.find(_.name == "OREO").get

  override def endToEnd(m: Metrics): Unit = {
    m("read_frac") = (oreo.queryCost / stream.size, "ratio")
    m("sim_qps") = (simQueries / Stat.seconds(simNs), "queries/s")
    m("decide_us_p50") = (decide.percentileNs(50) / 1e3, "us")
    m("decide_us_p999") = (decide.percentileNs(99.9) / 1e3, "us")
    m("decide_samples") = (decide.size.toDouble, "count")
    m("oreo_cost") = (oreo.totalCost, "logical")
  }

  override def perLayer(ctx: Ctx, m: Metrics, spans: Seq[Span], passes: Int): Unit = {
    val by = Tracer.byName(spans)
    def busy(n: String): Double = by.get(n).map(x => Stat.seconds(x._2)).getOrElse(0.0) / passes

    m("candidates.compute_s") = (busy("candidates.compute"), "s")
    m("candidates.count") = (candidates.size.toDouble, "count")
    // its only child spans are the layout.generate calls
    m("candidates.self_s") = (Stat.seconds(by("candidates.compute")._3) / passes, "s")

    val replays = Seq("static", "greedy", "regret", "oreo", "mts_optimal", "offline_optimal")
    for (r <- replays if by.contains(s"replay.$r")) m(s"replay.${r}_s") = (busy(s"replay.$r"), "s")
    for (r <- results) {
      val key = r.name.toLowerCase.replace(' ', '_')
      m(s"replay.$key.switches") = (r.switches.toDouble, "count")
    }

    val n = oreoStats.size.toDouble
    def avg(f: OreoStrategy => Int): Double = oreoStats.map(f).sum / n
    m("dumts.phases") = (avg(_.phases), "count")
    val offered = avg(_.offeredCount)
    val admitted = avg(_.admittedCount)
    m("manager.offered") = (offered, "count")
    m("manager.admitted") = (admitted, "count")
    m("manager.admit_ratio") = (if (offered == 0) 0.0 else admitted / offered, "ratio")
    m("manager.evictions") = (avg(s => 1 + s.admittedCount - s.stateSpaceSize), "count")
    m("manager.max_states") = (avg(_.maxStateSpaceSize), "count")
    m("manager.on_candidate_us_p50") = (offer.percentileNs(50) / 1e3, "us")
    m("manager.on_candidate_us_p95") = (offer.percentileNs(95) / 1e3, "us")
  }

  override def probeInputs: (DataMatrix, Seq[LayoutState], Vector[Query]) =
    (data, default +: candidates.map(_.state), stream.queries)

  override def check(ctx: Ctx): Unit = {
    val c = ctx.checks
    val key = (name, ctx.seed, ctx.scale)
    Reference.sim.get(key).foreach { ref =>
      for (r <- results) {
        val want = ref.get(r.name)
        c.check(want.contains((r.queryCost, r.reorgCost, r.switches)),
          s"${r.name} (query, reorg, switches) = (${r.queryCost}, ${r.reorgCost}, ${r.switches}), pinned $want")
      }
    }
    c.guard("Lab.oreoAvg") {
      val lab = Lab.oreoAvg(stream, default, candidates, Alpha, Gamma, Epsilon, 0, Seeds)
      c.check(lab.queryCost == oreo.queryCost && lab.reorgCost == oreo.reorgCost && lab.switches == oreo.switches,
        s"OREO cost ${oreo.totalCost} differs from Lab.oreoAvg ${lab.totalCost}")
    }
    for ((rs, i) <- allResults.zipWithIndex.drop(1))
      c.check(rs == allResults.head, s"pass $i gave different results than pass 0")
    c.guard("metadata soundness") {
      Soundness.check(c, data, (default +: candidates.map(_.state)), stream.queries, ctx.seed)
    }
  }

  override def outputs: String = Json.obj(results.map { r =>
    r.name -> Json.obj(Seq("query_cost" -> Json.num(r.queryCost), "reorg_cost" -> Json.num(r.reorgCost),
      "switches" -> r.switches.toString))
  })

  override def params(ctx: Ctx): Seq[(String, String)] = Seq(
    "dataset" -> Json.str(ds.name), "sf" -> Json.num(sf(ctx.scale)),
    "rows" -> data.numRows.toString, "queries" -> stream.size.toString,
    "segments" -> stream.segmentStarts.size.toString, "generator" -> Json.str(QdTreeGen.name),
    "source" -> Json.str(SW.tag), "every" -> Every.toString,
    "candidates" -> candidates.size.toString,
    "alpha" -> Json.num(Alpha), "gamma" -> Json.num(Gamma),
    "epsilon" -> Json.num(Epsilon), "k" -> K.toString,
    "mts_seeds" -> Json.arr(Seeds.map(_.toString)))
}

/** Metadata soundness on a sample of (state, query) pairs: every partition
  * holding a row that matches the query must be read, so c(s,q) is at least
  * the true matching fraction.
  */
object Soundness {
  private val nStates = 8
  private val nQueries = 25

  def check(c: Checks, data: DataMatrix, states: Seq[LayoutState], queries: Seq[Query], seed: Long): Unit = {
    val rng = new Random(seed + 101)
    val ss = if (states.size <= nStates) states
             else (0 until nStates).map(i => states(i * states.size / nStates))
    val qs = Seq.fill(nQueries)(queries(rng.nextInt(queries.size)))
    val n = data.numRows
    val matching = qs.map(q => (0 until n).filter(i => q.matchesRow(data.schema, data.row(i))))
    for (s <- ss) {
      val bids = Array.tabulate(n)(i => s.layout.bidOf(data.row(i)))
      for ((q, rows) <- qs.zip(matching)) {
        val needed = s.metadata.partitionsNeeded(q).toSet
        val missed = rows.iterator.map(bids).filterNot(needed).take(1).toSeq
        c.check(missed.isEmpty && s.cost(q) >= rows.size.toDouble / n,
          s"${s.id} q${q.id}: partitions $missed hold matching rows but are skipped, or c=${s.cost(q)} < ${rows.size.toDouble / n}")
      }
    }
  }
}
