package repro.perfbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}
import scala.collection.mutable

/** Benchmark entry point.
  *
  * {{{
  * Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  *      --out <dir> [--record key=value]...
  * }}}
  * Prints every metric as `name value unit` and, as the last line, one JSON
  * object with `correct`, `attempted`, `failed` and `metrics`. The metrics
  * of that line are the end-to-end ones (`--trace 0`) or the per-layer ones
  * (`--trace 1`); the result file under `--out` holds all of them plus the
  * run record, and a traced run also writes its spans there.
  */
object Main {

  /** End-to-end metrics every workload reports, in BENCHMARK.json order. */
  val EndToEnd: Seq[String] =
    Seq("setup_s", "run_s", "read_frac", "heap_live_mb")

  /** Per-layer metrics every workload reports, in BENCHMARK.json order. */
  val PerLayer: Seq[String] = Seq(
    "data.collect_s", "data.rows", "workload.gen_s", "workload.queries",
    "layout.generate.calls", "layout.generate.busy_s", "layout.generate_ms_p50", "layout.generate_ms_p95",
    "metadata.from_matrix_ms_p50", "cost.evals", "cost.ns_per_eval", "cost.skip_frac",
    "dumts.step_ns", "dumts.add_remove_us", "rtbs.add_ns", "trace.run_s", "trace.overhead_frac",
    "trace.span_ns", "trace.cost_frac")

  /** Spark's local cores. Spark's per-query work is short and latency-bound;
    * more threads than this only add scheduling noise on a shared host.
    */
  val Cores = 2

  object SetupReps { val min = 3; val max = 10; val warmSeconds = 1.5 }

  def workload(name: String): Workload = name match {
    case "replay-tpch" => new SimWorkload
    case "physical-tpch" => new PhysicalWorkload
    case other => throw new IllegalArgumentException(s"unknown workload $other")
  }

  /** @param scale shrinks every workload size; below 1 only in the smoke tests */
  final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean, out: String,
                        scale: Double, record: Seq[(String, String)])

  def parse(args: Array[String]): Args = {
    val kv = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toSeq
    def one(k: String): String = kv.find(_._1 == k).map(_._2)
      .getOrElse(throw new IllegalArgumentException(s"missing --$k"))
    val trace = one("trace")
    require(trace == "0" || trace == "1", "--trace must be 0 or 1")
    Args(one("workload"), one("seed").toLong, one("seconds").toDouble, trace == "1", one("out"),
      scale = 1.0, kv.filter(_._1 == "record").map { case (_, v) => val i = v.indexOf('='); v.take(i) -> v.drop(i + 1) })
  }

  def main(args: Array[String]): Unit = {
    val a = parse(args)
    val result = run(a)
    sys.exit(if (result.isDefined) 0 else 1)
  }

  /** Run one benchmark; returns the final JSON line, or None if the run
    * could not produce a result.
    */
  def run(a: Args): Option[String] = {
    val wl = workload(a.workload)
    val out = Paths.get(a.out)
    val workDir = out.resolve(s"work-${a.workload}-${a.seed}").toAbsolutePath.toString
    Files.createDirectories(out)
    val cores = math.min(Cores, Runtime.getRuntime.availableProcessors)
    val master = s"local[$cores]"
    val runId = s"${a.workload}-s${a.seed}-t${if (a.trace) 1 else 0}-${System.currentTimeMillis}"
    val tracer = new Tracer(a.trace, runId)
    val ctx = new Ctx(a.seed, a.scale, master, workDir, tracer)
    val e2e = new Metrics
    val layer = new Metrics
    var passTimes = Seq.empty[Double]
    var untracedPassTimes = Seq.empty[Double]
    val started = System.nanoTime()
    val phases = mutable.LinkedHashMap.empty[String, Double]
    def phase(name: String): Unit = phases(name) = Stat.seconds(System.nanoTime() - started)
    try {
      // set-up: repeated from a fresh Spark session, at least three times and
      // until the repeats after the cold first one add up to a few seconds;
      // the median is reported. The previous repeat's session and files are
      // removed before the clock starts.
      val setups = mutable.ArrayBuffer.empty[Double]
      while (setups.size < SetupReps.min ||
             (setups.size < SetupReps.max && setups.tail.sum < SetupReps.warmSeconds)) {
        ctx.stopSpark()
        repro.spark.PhysicalReorg.deleteDir(workDir)
        val t0 = System.nanoTime()
        tracer.span("setup")(wl.setup(ctx))
        setups += Stat.seconds(System.nanoTime() - t0)
      }
      val setupSpans = tracer.spans
      tracer.clear()
      e2e("setup_s") = (Stat.median(setups.toSeq), "s")
      e2e("setup_reps") = (setups.size.toDouble, "count")

      phase("setup_done")
      tracer.enabled = false
      val w0 = System.nanoTime()
      wl.warmup(ctx)
      e2e("warmup_s") = (Stat.seconds(System.nanoTime() - w0), "s")

      // measured region: whole passes until `--seconds` of pass time are
      // used; after each pass (outside its time) a full GC shows the heap
      // the pass left live
      var liveMb = 0.0
      def timedPass(traced: Boolean): Double = {
        tracer.enabled = traced
        val t0 = System.nanoTime()
        tracer.span("pass")(wl.pass(ctx))
        val s = Stat.seconds(System.nanoTime() - t0)
        tracer.enabled = false
        liveMb = liveMb max Heap.liveMb()
        s
      }
      wl.resetCounters()
      if (!a.trace) {
        Heap.resetPeak()
        val passes = mutable.ArrayBuffer.empty[Double]
        while (passes.isEmpty || passes.sum < a.seconds) passes += timedPass(traced = false)
        passTimes = passes.toSeq
        e2e("heap_peak_mb") = (Heap.peakMb, "MB")
        e2e("heap_live_mb") = (liveMb, "MB")
        e2e("run_s") = (Stat.mean(passTimes), "s")
        e2e("passes") = (passTimes.size.toDouble, "count")
        wl.endToEnd(e2e)
      } else {
        // untraced and traced passes alternate in pairs, each pair in the
        // opposite order of the one before and the pairs even in number, so
        // that drift and order cancel in the per-pair ratios whose median is
        // the tracing overhead
        val untraced = mutable.ArrayBuffer.empty[Double]
        val traced = mutable.ArrayBuffer.empty[Double]
        while (traced.size % 2 == 1 || traced.isEmpty || untraced.sum + traced.sum < a.seconds) {
          if (traced.size % 2 == 0) { untraced += timedPass(traced = false); traced += timedPass(traced = true) }
          else { traced += timedPass(traced = true); untraced += timedPass(traced = false) }
        }
        passTimes = traced.toSeq
        untracedPassTimes = untraced.toSeq
        val spans = tracer.spans
        layerMetrics(wl, ctx, layer, setupSpans, spans, traced.size)
        layer("trace.run_s") = (Stat.mean(traced.toSeq), "s")
        layer("trace.untraced_run_s") = (Stat.mean(untraced.toSeq), "s")
        layer("trace.overhead_frac") =
          (Stat.median(traced.zip(untraced).map { case (t, u) => t / u - 1 }.toSeq), "ratio")
        layer("trace.pairs") = (traced.size.toDouble, "count")
        // the host's drift limits that ratio to about ±0.15; the cost of one
        // span, timed in isolation, times the spans a pass records bounds the
        // overhead far more finely
        val spanNs = Tracer.spanCostNs()
        layer("trace.span_ns") = (spanNs, "ns")
        layer("trace.spans_per_pass") = (spans.size.toDouble / traced.size, "count")
        layer("trace.cost_frac") = (spans.size * spanNs / 1e9 / traced.sum, "ratio")
        val (data, states, queries) = wl.probeInputs
        Probes.run(layer, data, states, queries, a.seed, a.scale)
        writeSpans(out.resolve(s"${a.workload}-seed${a.seed}.spans.jsonl"), runId, setupSpans ++ spans)
      }
      phase("measure_done")
      tracer.clear()
      ctx.checks.guard("checks")(wl.check(ctx))
      phase("checks_done")
    } catch {
      case e: Exception =>
        ctx.checks.check(ok = false, s"run aborted: ${e.getClass.getSimpleName}: ${e.getMessage}")
        e.printStackTrace()
    } finally {
      ctx.stopSpark()
      repro.spark.PhysicalReorg.deleteDir(workDir)
    }
    phase("spark_stopped")

    val declared = if (a.trace) PerLayer else EndToEnd
    val metrics = if (a.trace) layer else e2e
    val complete = declared.forall(metrics.contains)
    val c = ctx.checks
    for (n <- metrics.names) println(f"$n%-32s ${metrics(n)}%-24s ${metrics.unitOf(n)}")
    println(f"${"failed_frac"}%-32s ${c.failed.toDouble / math.max(1, c.attempted)}%-24s ratio")
    c.failures.foreach(f => System.err.println(s"check failed: $f"))

    val record = Seq(
      "workload" -> Json.str(a.workload), "seed" -> a.seed.toString, "seconds" -> Json.num(a.seconds),
      "trace" -> a.trace.toString, "scale" -> Json.num(a.scale), "run_id" -> Json.str(runId),
      "nproc" -> Runtime.getRuntime.availableProcessors.toString,
      "jvm_max_heap_mb" -> Json.num(Runtime.getRuntime.maxMemory / 1e6),
      "java_version" -> Json.str(System.getProperty("java.version")),
      "spark_version" -> Json.str(org.apache.spark.SPARK_VERSION),
      "spark_master" -> Json.str(master),
      "spark_shuffle_partitions" -> Ctx.ShufflePartitions.toString,
    ) ++ a.record.map { case (k, v) => k -> Json.str(v) }
    val checks = Json.obj(Seq("attempted" -> c.attempted.toString, "failed" -> c.failed.toString,
      "failed_frac" -> Json.num(c.failed.toDouble / math.max(1, c.attempted)),
      "failures" -> Json.arr(c.failures.toSeq.map(Json.str))))
    val file = Json.obj(Seq("record" -> Json.obj(record),
      "params" -> (try Json.obj(wl.params(ctx)) catch { case _: Exception => "null" }),
      "outputs" -> (try wl.outputs catch { case _: Exception => "null" }),
      "checks" -> checks, "pass_s" -> Json.arr(passTimes.map(Json.num)),
      "untraced_pass_s" -> Json.arr(untracedPassTimes.map(Json.num)),
      "phases_s" -> Json.obj(phases.toSeq.map { case (k, v) => k -> Json.num(v) }),
      "end_to_end" -> e2e.toJson(), "per_layer" -> layer.toJson()))
    Files.write(out.resolve(s"${a.workload}-seed${a.seed}-trace${if (a.trace) 1 else 0}.json"),
      (file + "\n").getBytes(StandardCharsets.UTF_8))

    if (!complete || c.attempted == 0) {
      System.err.println(s"no result: missing metrics ${declared.filterNot(metrics.contains).mkString(", ")}")
      None
    } else {
      val line = Json.obj(Seq("correct" -> (c.failed == 0).toString, "attempted" -> c.attempted.toString,
        "failed" -> c.failed.toString, "metrics" -> metrics.toJson(Some(declared))))
      println(line)
      Some(line)
    }
  }

  private def layerMetrics(wl: Workload, ctx: Ctx, m: Metrics, setup: Seq[Span], spans: Seq[Span],
                           passes: Int): Unit = {
    def durations(ss: Seq[Span], n: String): Seq[Double] =
      ss.filter(_.name == n).map(s => Stat.seconds(s.durationNs))
    m("data.collect_s") = (Stat.median(durations(setup, "data.collect")), "s")
    m("workload.gen_s") = (Stat.median(durations(setup, "workload.gen")), "s")
    m("setup.spark_session_s") = (Stat.median(durations(setup, "spark.session")), "s")
    val (data, _, queries) = wl.probeInputs
    m("data.rows") = (data.numRows.toDouble, "count")
    m("workload.queries") = (queries.size.toDouble, "count")
    val gens = durations(spans, "layout.generate")
    m("layout.generate.calls") = (gens.size.toDouble / passes, "count")
    m("layout.generate.busy_s") = (gens.sum / passes, "s")
    val genSamples = new Samples
    spans.filter(_.name == "layout.generate").foreach(s => genSamples.add(s.durationNs))
    m("layout.generate_ms_p50") = (genSamples.percentileNs(50) / 1e6, "ms")
    m("layout.generate_ms_p95") = (genSamples.percentileNs(95) / 1e6, "ms")
    wl.perLayer(ctx, m, spans, passes)
  }

  private def writeSpans(path: java.nio.file.Path, runId: String, spans: Seq[Span]): Unit =
    Files.write(path, Tracer.toJsonLines(runId, spans).mkString("", "\n", "\n").getBytes(StandardCharsets.UTF_8))
}
