package repro.perfbench

import org.apache.spark.sql.functions.{count, lit}
import repro.Oracle
import repro.core._
import repro.data.TpchLite
import repro.exp.{Datasets, Lab}
import repro.layout.QdTreeGen
import repro.spark.{BidTable, PhysicalReorg}
import repro.workload.{Workload => Stream}
import scala.collection.mutable
import scala.util.Random

/** The physical BID/Parquet path (Table I and the rewritten queries of
  * §VI-A1). Set-up writes a TPCH-lite table under the default layout; each
  * measured cycle builds a Qd-tree for one workload segment from a fresh
  * data sample, reorganizes the table into it, rebuilds its metadata from
  * the files, runs full scans and then that segment's rewritten
  * `BID IN (...)` queries one at a time. Every cycle serves the same
  * segment, so cycles do comparable work; cycles over different
  * segments (templates) differ by up to a quarter in time.
  */
final class PhysicalWorkload extends Workload {
  override val name = "physical-tpch"
  private val ds = Datasets.tpch
  private val rows = 100000 // table rows at scale 1
  private val queriesPerCycle = 30
  private val scansPerCycle = 2
  private val segment = 1
  private val k = 32

  private var data: DataMatrix = _
  private var stream: Stream = _
  private var gen: TimedLayoutGen = _
  private var path: String = _
  private var cycles = 0
  private var writeS = 0.0
  private var writtenMb = 0.0

  private var reorg = mutable.ArrayBuffer.empty[Double]
  private var scan = mutable.ArrayBuffer.empty[Double]
  private var fromDf = mutable.ArrayBuffer.empty[Double]
  // one rewritten query = rewrite (plan) + count (exec)
  private var query = new Samples
  private var plan = new Samples
  private var exec = new Samples
  private var partsRead = mutable.ArrayBuffer.empty[Double]
  private var cycleRead = mutable.ArrayBuffer.empty[Double]
  // (query, row count Spark returned), checked after the measured region
  private val answered = mutable.ArrayBuffer.empty[(Query, Long)]
  private var last: LayoutState = _

  private def nRows(scale: Double): Int = math.max(2000, (rows * scale).toInt)
  private def qPerCycle(scale: Double): Int = math.max(5, (queriesPerCycle * scale).toInt)
  private def tablePath(ctx: Ctx, i: Int): String = s"${ctx.workDir}/bid-${i % 2}"

  override def setup(ctx: Ctx): Unit = {
    val t = ctx.tracer
    ctx.startSpark()
    val n = nRows(ctx.scale)
    val df = TpchLite.denorm(ctx.spark, n / 6.0e6).cache()
    data = t.span("data.collect")(DataMatrix.collect(df, ds.schema))
    stream = t.span("workload.gen")(Streams.rounds(ds.templates, 1, math.max(20, (200 * ctx.scale).toInt), ctx.seed))
    gen = new TimedLayoutGen(QdTreeGen, t)
    val default = t.span("metadata.default")(Lab.defaultState(data, ds, k))
    path = tablePath(ctx, 0)
    writeS = t.span("spark.write")(PhysicalReorg.timed(BidTable.write(df, ds.schema, default.layout, path)))
    writtenMb = PhysicalReorg.dirSizeMb(path)
    df.unpersist()
    last = default
    cycles = 0
  }

  override def resetCounters(): Unit = {
    reorg = mutable.ArrayBuffer.empty; scan = mutable.ArrayBuffer.empty
    fromDf = mutable.ArrayBuffer.empty; partsRead = mutable.ArrayBuffer.empty
    cycleRead = mutable.ArrayBuffer.empty
    query = new Samples; plan = new Samples; exec = new Samples
    answered.clear()
  }

  /** A short cycle, then two full ones: Spark's first reorg, scan and
    * queries run far slower than later ones (code generation, file-listing
    * caches, JIT), and a rewritten query takes about 120 runs to settle.
    */
  override def warmup(ctx: Ctx): Unit = {
    cycle(ctx, queries = 5)
    for (_ <- 0 until 2) cycle(ctx, qPerCycle(ctx.scale))
    resetCounters()
  }

  override def pass(ctx: Ctx): Unit = cycle(ctx, qPerCycle(ctx.scale))

  private def cycle(ctx: Ctx, queries: Int): Unit = {
    val t = ctx.tracer
    val spark = ctx.spark
    cycles += 1
    val segStart = stream.segmentStarts(segment)
    val segEnd = stream.segmentStarts(segment + 1)
    val segQueries = stream.queries.slice(segStart, segEnd)
    val layout = gen.generate(data.sample(1000, ctx.seed * 1000 + cycles), segQueries.take(200), k,
      s"phys-$cycles")

    val next = tablePath(ctx, cycles)
    PhysicalReorg.deleteDir(next)
    reorg += t.span("spark.reorg")(PhysicalReorg.timeReorg(spark, path, ds.schema, layout, next))
    PhysicalReorg.deleteDir(path)
    path = next
    val table = BidTable.read(spark, path)
    val t0 = System.nanoTime()
    val meta = t.span("metadata.from_dataframe")(MetadataBuilder.fromDataFrame(table, ds.schema, layout))
    fromDf += Stat.seconds(System.nanoTime() - t0)
    last = LayoutState(layout, meta)

    for (_ <- 0 until scansPerCycle)
      scan += t.span("spark.scan")(PhysicalReorg.timeFullScan(spark, path, ds.schema))

    // closed loop: one rewritten query at a time, drawn from this segment
    val rng = new Random(ctx.seed * 7919 + cycles)
    for (_ <- 0 until queries) {
      val q = segQueries(rng.nextInt(segQueries.size))
      val n = t.span("spark.query")(query.time {
        val df = t.span("spark.rewrite_plan")(plan.time(BidTable.rewrite(table, q, meta)))
        exec.time(df.count())
      })
      answered += ((q, n))
      partsRead += BidTable.partitionsRead(q, meta).toDouble / meta.partitions.size
    }
    // what a rewritten query reads, over every query of the segment
    cycleRead += segQueries.map(meta.fractionAccessed).sum / segQueries.size
  }

  override def endToEnd(m: Metrics): Unit = {
    // over the first two cycles, which every run completes, so that it does
    // not depend on how many cycles fit in the run
    m("read_frac") = (cycleRead.take(2).sum / cycleRead.take(2).size, "ratio")
    m("reorg_s") = (Stat.median(reorg.toSeq), "s")
    m("scan_s") = (Stat.median(scan.toSeq), "s")
    m("query_ms_p50") = (query.percentileNs(50) / 1e6, "ms")
    m("query_ms_p95") = (query.percentileNs(95) / 1e6, "ms")
    m("query_samples") = (query.size.toDouble, "count")
  }

  override def perLayer(ctx: Ctx, m: Metrics, spans: Seq[Span], passes: Int): Unit = {
    m("spark.write_s") = (writeS, "s")
    m("spark.bytes_written_mb") = (writtenMb, "MB")
    m("spark.rewrite_plan_us_p50") = (plan.percentileNs(50) / 1e3, "us")
    m("spark.exec_ms_p50") = (exec.percentileNs(50) / 1e6, "ms")
    m("spark.partitions_read_frac") = (partsRead.sum / partsRead.size, "ratio")
    m("metadata.from_dataframe_s") = (Stat.median(fromDf.toSeq), "s")
  }

  override def probeInputs: (DataMatrix, Seq[LayoutState], Vector[Query]) =
    (data, Seq(last), stream.queries)

  override def check(ctx: Ctx): Unit = {
    val c = ctx.checks
    // every answer against a metadata-free scan of the driver copy
    val distinct = answered.groupBy(_._1.id)
    for ((_, as) <- distinct) {
      val q = as.head._1
      var want = 0L
      var i = 0
      while (i < data.numRows) { if (q.matchesRow(data.schema, data.row(i))) want += 1; i += 1 }
      for ((_, got) <- as) c.check(got == want, s"q${q.id}: rewritten count $got, driver scan $want")
    }
    // a small subset against DuckDB, on a small table under the last layout
    c.guard("DuckDB oracle") {
      val spark = ctx.spark
      val small = data.sample(2000, ctx.seed)
      val df = spark.createDataFrame(spark.sparkContext.parallelize(
        (0 until small.numRows).map(i => org.apache.spark.sql.Row.fromSeq(small.cols.map(_(i)).toSeq)), 1),
        org.apache.spark.sql.types.StructType(ds.schema.names.map(n =>
          org.apache.spark.sql.types.StructField(n, org.apache.spark.sql.types.DoubleType))))
      val smallPath = s"${ctx.workDir}/oracle"
      PhysicalReorg.deleteDir(smallPath)
      BidTable.write(df, ds.schema, last.layout, smallPath)
      val table = BidTable.read(spark, smallPath)
      val meta = MetadataBuilder.fromDataFrame(table, ds.schema, last.layout)
      val rng = new Random(ctx.seed + 3)
      for (_ <- 0 until 3) {
        val q = stream.queries(rng.nextInt(stream.size))
        c.guard(s"DuckDB q${q.id}") {
          Oracle.assertEquivalent(BidTable.rewrite(table, q, meta).agg(count(lit(1)).as("n")),
            s"SELECT count(*) AS n FROM t WHERE ${q.toSql}", "t" -> df)
          c.check(ok = true, "")
        }
      }
      PhysicalReorg.deleteDir(smallPath)
    }
  }

  override def outputs: String = Json.obj(Seq("queries_answered" -> answered.size.toString,
    "rows_matched" -> answered.map(_._2).sum.toString))

  override def params(ctx: Ctx): Seq[(String, String)] = Seq(
    "dataset" -> Json.str(ds.name), "rows" -> data.numRows.toString,
    "file_mb" -> Json.num(writtenMb), "queries" -> stream.size.toString,
    "segments" -> stream.segmentStarts.size.toString, "generator" -> Json.str(QdTreeGen.name),
    "queries_per_cycle" -> qPerCycle(ctx.scale).toString,
    "scans_per_cycle" -> scansPerCycle.toString, "k" -> k.toString)
}
