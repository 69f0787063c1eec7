package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.exp._

/** Shared session builder for the spark-submit entrypoints. */
object Jobs {
  def session(app: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(app)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
}

/** Table I: measured α = reorg time / full-scan time across file sizes.
  * Usage: spark-submit --class repro.jobs.TableIJob ... [workDir] [rows...]
  */
object TableIJob {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("tableI")
    val workDir = args.headOption.getOrElse("/tmp/oreo-tableI")
    val rows = if (args.length > 1) args.tail.map(_.toLong).toSeq
               else Seq(50_000L, 200_000L, 800_000L)
    println(TableIExp.format(TableIExp.run(spark, workDir, rows)))
    spark.stop()
  }
}

/** Table II: γ / SW-vs-RS / Δ grid in logical simulation costs.
  * Usage: ... repro.jobs.TableIIJob [sf] [scale]
  */
object TableIIJob {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("tableII")
    val sf = args.headOption.map(_.toDouble).getOrElse(0.05)
    val scale = args.lift(1).map(_.toDouble).getOrElse(1.0)
    println(TableIIExp.format(TableIIExp.run(Datasets.all.map(Lab.setup(spark, _, sf, scale)))))
    spark.stop()
  }
}

/** Figure 3: Static / Greedy / Regret / OREO × {Qd-tree, Z-order} × datasets. */
object Figure3Job {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("figure3")
    val sf = args.headOption.map(_.toDouble).getOrElse(0.05)
    val scale = args.lift(1).map(_.toDouble).getOrElse(1.0)
    val results = Datasets.all.map(ds => Figure3Exp.runDataset(Lab.setup(spark, ds, sf, scale)))
    println(Figure3Exp.format(results))
    spark.stop()
  }
}

/** Figure 4: OREO vs MTS-Optimal vs Offline-Optimal on TPCH and TPCDS. */
object GapJob {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("gap")
    val sf = args.headOption.map(_.toDouble).getOrElse(0.05)
    val scale = args.lift(1).map(_.toDouble).getOrElse(1.0)
    val rs = Seq(Datasets.tpch, Datasets.tpcds).map(ds => GapExp.run(Lab.setup(spark, ds, sf, scale)))
    println(GapExp.format(rs))
    spark.stop()
  }
}

/** Figures 5 & 6: α sweep and ε sweep on TPCH. */
object SweepsJob {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("sweeps")
    val sf = args.headOption.map(_.toDouble).getOrElse(0.05)
    val scale = args.lift(1).map(_.toDouble).getOrElse(1.0)
    val tpch = Lab.setup(spark, Datasets.tpch, sf, scale)
    println("— Figure 5 (alpha sweep, TPCH) —")
    println(SweepExp.formatAlpha(SweepExp.alphaSweep(tpch)))
    println("— Figure 6 (epsilon sweep, TPCH) —")
    println(SweepExp.formatEps(SweepExp.epsilonSweep(tpch)))
    spark.stop()
  }
}
