package repro.data

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import repro.core._
import repro.workload.QueryTemplate

/** Synthetic stand-in for the paper's VMware SuperCollider telemetry table
  * (ingestion-job monitoring logs: ~30M rows, 24k queries over six months).
  *
  * The paper describes the workload as "range queries on the arrival time of
  * the record, where the time interval ranges from a few hours to a few
  * months, as well as filters on the name of the collector" (§VI-A2) — that
  * description fully parameterizes the synthetic templates below.
  */
object TelemetryData {

  private val NRowsPerSf = 3_000_000L
  val MaxHour = 4379 // ~6 months of hourly arrivals

  val schema: TableSchema = TableSchema(IndexedSeq(
    ColumnDef("arrival_h"),
    ColumnDef("collector", isCategorical = true, cardinality = 40),
    ColumnDef("job_type", isCategorical = true, cardinality = 12),
    ColumnDef("status", isCategorical = true, cardinality = 4),
    ColumnDef("team", isCategorical = true, cardinality = 20),
    ColumnDef("duration_ms"),
    ColumnDef("rows_ingested"),
    ColumnDef("bytes_mb"),
  ))

  /** Encoded telemetry table (~3M·sf rows). Collectors are skewed (some send
    * far more than others) and weakly correlated with time-of-day, like real
    * ingestion fleets.
    */
  def table(spark: SparkSession, sf: Double = 0.01, seed: Long = 11): DataFrame = {
    val n = math.max(1L, (NRowsPerSf * sf).toLong)
    val hour = (rand(seed) * (MaxHour + 1)).cast(IntegerType)
    // zipf-ish collector skew via squared uniform draw
    val collector = (pow(rand(seed + 1), 2.0) * 40).cast(IntegerType)
    spark.range(n).select(
      hour.cast(DoubleType) as "arrival_h",
      collector.cast(DoubleType) as "collector",
      ((collector + (rand(seed + 2) * 4).cast(IntegerType)) % 12).cast(DoubleType) as "job_type",
      when(rand(seed + 3) < 0.9, 0.0)            // 0=ok, 1=failed, 2=retried, 3=skipped
        .when(rand(seed + 3) < 0.95, 1.0)
        .when(rand(seed + 3) < 0.98, 2.0).otherwise(3.0) as "status",
      (collector % 20).cast(DoubleType) as "team",
      round(exp(rand(seed + 4) * 6) * 100, 1) as "duration_ms",
      (rand(seed + 5) * 1e6).cast(LongType).cast(DoubleType) as "rows_ingested",
      round(rand(seed + 6) * 2048, 1) as "bytes_mb",
    )
  }

  /** 8 templates per the paper's workload description. */
  val templates: IndexedSeq[QueryTemplate] = IndexedSeq(
    QueryTemplate("time_6h") { r =>
      val t = r.nextInt(MaxHour - 6); Seq(RangePred("arrival_h", t, t + 5))
    },
    QueryTemplate("time_1d") { r =>
      val t = r.nextInt(MaxHour - 24); Seq(RangePred("arrival_h", t, t + 23))
    },
    QueryTemplate("time_1w") { r =>
      val t = r.nextInt(MaxHour - 168); Seq(RangePred("arrival_h", t, t + 167))
    },
    QueryTemplate("time_1m") { r =>
      val t = r.nextInt(MaxHour - 720); Seq(RangePred("arrival_h", t, t + 719))
    },
    QueryTemplate("collector") { r =>
      Seq(InPred("collector", Set(r.nextInt(40).toDouble)))
    },
    QueryTemplate("collector_time") { r =>
      val t = r.nextInt(MaxHour - 72)
      Seq(InPred("collector", Set(r.nextInt(40).toDouble)), RangePred("arrival_h", t, t + 71))
    },
    QueryTemplate("failed_week") { r =>
      val t = r.nextInt(MaxHour - 168)
      Seq(InPred("status", Set(1.0)), RangePred("arrival_h", t, t + 167))
    },
    QueryTemplate("slow_jobs") { r =>
      Seq(InPred("job_type", Set(r.nextInt(12).toDouble)),
          RangePred("duration_ms", 10000 + r.nextInt(20000), 1e9))
    },
  )
}
