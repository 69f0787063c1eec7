package repro.perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import org.apache.spark.sql.SparkSession
import repro.core.{DataMatrix, LayoutState, Query}
import repro.layout.{Layout, LayoutGen}
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Named metric values in insertion order, each with its unit. */
final class Metrics {
  private val values = mutable.LinkedHashMap.empty[String, (Double, String)]

  def update(name: String, valueAndUnit: (Double, String)): Unit = values(name) = valueAndUnit
  def apply(name: String): Double = values(name)._1
  def contains(name: String): Boolean = values.contains(name)
  def names: Seq[String] = values.keys.toSeq
  def unitOf(name: String): String = values(name)._2

  def toJson(only: Option[Seq[String]] = None): String =
    Json.obj(only.getOrElse(names).map { n =>
      val (v, u) = values(n)
      n -> Json.obj(Seq("value" -> Json.num(v), "unit" -> Json.str(u)))
    })
}

/** Output checks: each one attempted counts once; a failed check or an
  * exception raised while running the workload counts as failed.
  */
final class Checks {
  var attempted = 0
  var failed = 0
  val failures = mutable.ArrayBuffer.empty[String]

  def check(ok: Boolean, what: => String): Unit = {
    attempted += 1
    if (!ok) { failed += 1; if (failures.size < 20) failures += what }
  }

  /** Run `body`; an exception it throws is a failed check. */
  def guard(what: String)(body: => Unit): Unit =
    try body
    catch {
      case e: Exception =>
        check(ok = false, s"$what: ${e.getClass.getSimpleName}: ${e.getMessage}")
    }
}

/** Everything a workload needs while it runs. */
final class Ctx(val seed: Long, val scale: Double, val master: String, val workDir: String,
                val tracer: Tracer) {
  var spark: SparkSession = _
  val checks = new Checks

  /** Start a new local Spark session; each set-up repeat starts its own,
    * after `stopSpark` has ended the one before.
    */
  def startSpark(): Unit = tracer.span("spark.session") {
    require(spark == null, "the previous Spark session is still running")
    spark = SparkSession.builder()
      .master(master)
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", Ctx.ShufflePartitions.toString)
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.sql.warehouse.dir", s"$workDir/warehouse")
      .getOrCreate()
  }

  def stopSpark(): Unit = if (spark != null) {
    spark.stop()
    SparkSession.clearActiveSession()
    SparkSession.clearDefaultSession()
    spark = null
  }
}

object Ctx {
  val ShufflePartitions = 8
}

/** A `LayoutGen` that records a `layout.generate` span around each call. It
  * keeps the wrapped generator's name, so the layout ids the program derives
  * from it stay the same.
  */
final class TimedLayoutGen(inner: LayoutGen, tracer: Tracer) extends LayoutGen {
  override def name: String = inner.name
  override def generate(sample: DataMatrix, queries: Seq[Query], k: Int, id: String): Layout =
    tracer.span("layout.generate")(inner.generate(sample, queries, k, id))
}

/** Peak JVM heap over a region: the sum of the heap pools' peak usage. */
object Heap {
  private def pools = ManagementFactory.getMemoryPoolMXBeans.asScala.filter(_.getType == MemoryType.HEAP)
  def resetPeak(): Unit = pools.foreach(_.resetPeakUsage())
  def peakMb: Double = pools.map(_.getPeakUsage.getUsed).sum / 1e6

  /** Heap in use after a full collection: what the program keeps live. */
  def liveMb(): Double = {
    System.gc()
    pools.map(_.getUsage.getUsed).sum / 1e6
  }
}

object Stat {
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of nothing")
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  /** Mean of `xs`. The time of one pass is reported as the mean over the
    * whole measured region: on a shared host, fast and slow spells of
    * several seconds alternate, and the mean averages over them, where the
    * fastest passes depend on whether a run happened to catch a fast spell.
    */
  def mean(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "mean of nothing")
    xs.sum / xs.size
  }

  def seconds(ns: Long): Double = ns / 1e9
}

/** A benchmark workload. `setup` runs several times (each starts from a
  * fresh Spark session); `pass` is one full unit of measured work and is
  * repeated for the run's duration; `check` verifies the outputs afterwards.
  */
trait Workload {
  def name: String
  def setup(ctx: Ctx): Unit
  def pass(ctx: Ctx): Unit
  /** Work before the measured region that warms caches and compiled code:
    * one untimed pass, since the first pass runs about 25 % slower.
    */
  def warmup(ctx: Ctx): Unit = { pass(ctx); resetCounters() }
  /** Reset the per-pass counters the end-to-end metrics are built from. */
  def resetCounters(): Unit
  /** End-to-end metrics beyond the ones `Main` measures around the passes:
    * `read_frac` and the workload's own numbers for the result file.
    */
  def endToEnd(m: Metrics): Unit
  /** Driver data, layouts and queries the isolated layer probes run on. */
  def probeInputs: (DataMatrix, Seq[LayoutState], Vector[Query])
  /** Per-layer metrics of a traced run, over `passes` traced passes. */
  def perLayer(ctx: Ctx, m: Metrics, spans: Seq[Span], passes: Int): Unit
  def check(ctx: Ctx): Unit
  /** Workload parameters for the run record. */
  def params(ctx: Ctx): Seq[(String, String)]
  /** The logical outputs of the last pass, as JSON, for the result file. */
  def outputs: String
}
