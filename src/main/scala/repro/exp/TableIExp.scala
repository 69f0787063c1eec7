package repro.exp

import org.apache.spark.sql.SparkSession
import repro.core.{DataMatrix, Query, RangePred}
import repro.layout.QdTreeGen
import repro.spark.PhysicalReorg
import repro.spark.BidTable
import scala.util.Random

/** Table I reproduction: the relative cost of reorganization over a full
  * table scan (α) measured physically on Parquet files of increasing size.
  *
  * The paper sweeps 16MB–4GB and finds α in 60×–100×. We sweep smaller
  * files (see DESIGN.md §3): the claim under test is that reorganization
  * (read + BID update + shuffle + compress/write) costs a roughly
  * size-independent large multiple of one scan.
  */
object TableIExp {

  final case class Row(targetRows: Long, fileMb: Double, querySec: Double,
                       reorgSec: Double) {
    def alpha: Double = reorgSec / querySec
  }

  /** Seed of the target layout's queries and data sample. */
  private val TargetSeed = 21L

  /** Measure one size point: write a TPCH-lite table of `rows` rows under the
    * default layout, time repeated full scans and reorganizations into a
    * workload-optimized Qd-tree layout.
    *
    * @param reps timing repetitions (first scan warms the file cache; we
    *             report the mean of the remaining reps)
    */
  def measure(spark: SparkSession, rows: Long, workDir: String, k: Int = Lab.K,
              reps: Int = 3): Row = {
    val ds = Datasets.tpch
    val sf = rows / 6.0e6 // SynthData lineitem rows per unit SF
    val df = ds.mkDf(spark, sf)
    val basePath = s"$workDir/base-$rows"
    val reorgPath = s"$workDir/reorg-$rows"

    // default layout on the arrival column
    val data = DataMatrix.collect(df.sample(math.min(1.0, 50000.0 / rows)), ds.schema)
    val default = Lab.defaultState(data, ds, k)
    BidTable.write(df, ds.schema, default.layout, basePath)
    val mb = PhysicalReorg.dirSizeMb(basePath)

    // target layout: qd-tree for a synthetic workload over this schema
    val rng = new Random(TargetSeed)
    val qs = Vector.tabulate(200)(i => Query(i, 0, ds.templates(i % ds.templates.size).instantiate(rng)))
    val qd = QdTreeGen.generate(data.sample(1000, TargetSeed), qs, k, "tableI-qd")

    // one warmup round each (codegen + file-cache), then `reps` timed rounds
    val scans = (0 to reps).map(_ => PhysicalReorg.timeFullScan(spark, basePath, ds.schema))
    val reorgs = (0 to reps).map { _ =>
      PhysicalReorg.deleteDir(reorgPath)
      PhysicalReorg.timeReorg(spark, basePath, ds.schema, qd, reorgPath)
    }
    PhysicalReorg.deleteDir(reorgPath)
    PhysicalReorg.deleteDir(basePath)
    Row(rows, mb, scans.tail.sum / reps, reorgs.tail.sum / reps)
  }

  /** Sweep file sizes (row counts chosen to land near the target MBs).
    *
    * Sizes must be large enough that Spark's fixed per-job overhead (~1 s
    * of scheduling/codegen in local mode) does not floor both timings —
    * below ~30 MB the measured ratio collapses toward 1 regardless of the
    * true IO cost ratio.
    */
  def run(spark: SparkSession, workDir: String,
          rowCounts: Seq[Long] = Seq(1_000_000L, 3_000_000L, 8_000_000L)): Seq[Row] =
    rowCounts.map(measure(spark, _, workDir))

  def format(rows: Seq[Row]): String = {
    val sb = new StringBuilder
    sb.append(f"${"rows"}%-10s ${"file MB"}%-10s ${"query s"}%-10s ${"reorg s"}%-10s ${"alpha"}%-8s\n")
    for (r <- rows)
      sb.append(f"${r.targetRows}%-10d ${r.fileMb}%-10.1f ${r.querySec}%-10.3f ${r.reorgSec}%-10.3f ${r.alpha}%-8.1f\n")
    sb.toString
  }
}
