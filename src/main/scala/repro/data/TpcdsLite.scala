package repro.data

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import repro.core._
import repro.workload.QueryTemplate

/** TPC-DS-lite: a synthetic stand-in for the paper's denormalized
  * store_sales table (TPC-DS SF10, 26M rows) — see DESIGN.md §3.
  *
  * The table is generated directly as a wide encoded fact table whose date
  * dimension attributes (d_year / d_moy / d_dow) are *derived from* the sold
  * date, preserving the column correlations that matter for data skipping.
  * 17 templates mirror the paper's list (q3, q7, q13, q19, q27, q28, q34,
  * q36, q46, q48, q53, q68, q79, q88, q89, q96, q98) in predicate shape.
  */
object TpcdsLite {

  private val NRowsPerSf = 2_600_000L // paper: 26M rows at SF10
  val MaxDay = 1824                   // 5 years of sold dates

  val schema: TableSchema = TableSchema(IndexedSeq(
    ColumnDef("ss_sold_date"),
    ColumnDef("d_year", isCategorical = true, cardinality = 5),
    ColumnDef("d_moy", isCategorical = true, cardinality = 12),
    ColumnDef("d_dow", isCategorical = true, cardinality = 7),
    ColumnDef("ss_quantity"),
    ColumnDef("ss_sales_price"),
    ColumnDef("ss_ext_sales_price"),
    ColumnDef("ss_net_profit"),
    ColumnDef("ss_wholesale_cost"),
    ColumnDef("s_state", isCategorical = true, cardinality = 10),
    ColumnDef("s_city", isCategorical = true, cardinality = 25),
    ColumnDef("i_category", isCategorical = true, cardinality = 10),
    ColumnDef("i_class", isCategorical = true, cardinality = 30),
    ColumnDef("i_brand", isCategorical = true, cardinality = 50),
    ColumnDef("c_birth_year"),
    ColumnDef("hd_dep_count", isCategorical = true, cardinality = 10),
    ColumnDef("ca_state", isCategorical = true, cardinality = 10),
  ))

  /** Encoded denormalized store_sales table (~2.6M·sf rows). */
  def storeSalesDenorm(spark: SparkSession, sf: Double = 0.01, seed: Long = 7): DataFrame = {
    val n = math.max(1L, (NRowsPerSf * sf).toLong)
    val date = (rand(seed) * (MaxDay + 1)).cast(IntegerType)
    spark.range(n).select(
      date.cast(DoubleType) as "ss_sold_date",
      floor(date / 365).cast(DoubleType) as "d_year",
      (floor((date % 365) / 31) % 12).cast(DoubleType) as "d_moy",
      (date % 7).cast(DoubleType) as "d_dow",
      (rand(seed + 1) * 100 + 1).cast(IntegerType).cast(DoubleType) as "ss_quantity",
      round(rand(seed + 2) * 200, 2) as "ss_sales_price",
      round(rand(seed + 3) * 20000, 2) as "ss_ext_sales_price",
      round(rand(seed + 4) * 300 - 100, 2) as "ss_net_profit",
      round(rand(seed + 5) * 99 + 1, 2) as "ss_wholesale_cost",
      (rand(seed + 6) * 10).cast(IntegerType).cast(DoubleType) as "s_state",
      (rand(seed + 7) * 25).cast(IntegerType).cast(DoubleType) as "s_city",
      (rand(seed + 8) * 10).cast(IntegerType).cast(DoubleType) as "i_category",
      (rand(seed + 9) * 30).cast(IntegerType).cast(DoubleType) as "i_class",
      (rand(seed + 10) * 50).cast(IntegerType).cast(DoubleType) as "i_brand",
      (rand(seed + 11) * 77 + 1924).cast(IntegerType).cast(DoubleType) as "c_birth_year",
      (rand(seed + 12) * 10).cast(IntegerType).cast(DoubleType) as "hd_dep_count",
      (rand(seed + 13) * 10).cast(IntegerType).cast(DoubleType) as "ca_state",
    )
  }

  /** 17 templates shaped after the paper's TPC-DS template list. */
  val templates: IndexedSeq[QueryTemplate] = IndexedSeq(
    QueryTemplate("q3") { r =>
      Seq(InPred("d_moy", Set(r.nextInt(12).toDouble)),
          InPred("i_brand", Set(r.nextInt(50).toDouble, r.nextInt(50).toDouble)))
    },
    QueryTemplate("q7") { r =>
      Seq(InPred("d_year", Set(r.nextInt(5).toDouble)),
          InPred("hd_dep_count", Set(r.nextInt(10).toDouble)))
    },
    QueryTemplate("q13") { r =>
      val p = r.nextInt(150).toDouble
      Seq(RangePred("ss_sales_price", p, p + 50),
          InPred("ca_state", Seq.fill(3)(r.nextInt(10).toDouble).toSet))
    },
    QueryTemplate("q19") { r =>
      Seq(InPred("d_moy", Set(r.nextInt(12).toDouble)),
          InPred("d_year", Set(r.nextInt(5).toDouble)),
          InPred("i_category", Set(r.nextInt(10).toDouble)))
    },
    QueryTemplate("q27") { r =>
      Seq(InPred("d_year", Set(r.nextInt(5).toDouble)),
          InPred("s_state", Seq.fill(2)(r.nextInt(10).toDouble).toSet))
    },
    QueryTemplate("q28") { r =>
      val a = r.nextInt(95).toDouble; val p = r.nextInt(190).toDouble
      Seq(RangePred("ss_quantity", a, a + 5), RangePred("ss_sales_price", p, p + 10))
    },
    QueryTemplate("q34") { r =>
      val d = r.nextInt(MaxDay - 365)
      Seq(InPred("hd_dep_count", Seq.fill(3)(r.nextInt(10).toDouble).toSet),
          RangePred("ss_sold_date", d, d + 364))
    },
    QueryTemplate("q36") { r =>
      Seq(InPred("d_year", Set(r.nextInt(5).toDouble)),
          InPred("s_state", Seq.fill(5)(r.nextInt(10).toDouble).toSet))
    },
    QueryTemplate("q46") { r =>
      Seq(InPred("d_dow", Set(0.0, 6.0)),
          InPred("s_city", Seq.fill(2)(r.nextInt(25).toDouble).toSet))
    },
    QueryTemplate("q48") { r =>
      val p = r.nextInt(150).toDouble
      Seq(RangePred("ss_sales_price", p, p + 50),
          InPred("ca_state", Seq.fill(3)(r.nextInt(10).toDouble).toSet),
          InPred("d_year", Set(r.nextInt(5).toDouble)))
    },
    QueryTemplate("q53") { r =>
      Seq(InPred("i_class", Seq.fill(3)(r.nextInt(30).toDouble).toSet),
          InPred("d_moy", Set(r.nextInt(12).toDouble)))
    },
    QueryTemplate("q68") { r =>
      val d = r.nextInt(MaxDay - 90)
      Seq(InPred("s_city", Seq.fill(2)(r.nextInt(25).toDouble).toSet),
          RangePred("ss_sold_date", d, d + 89))
    },
    QueryTemplate("q79") { r =>
      val d = r.nextInt(MaxDay - 180)
      Seq(InPred("hd_dep_count", Set(r.nextInt(10).toDouble)),
          InPred("s_state", Set(r.nextInt(10).toDouble)),
          RangePred("ss_sold_date", d, d + 179))
    },
    QueryTemplate("q88") { r =>
      val y = (1924 + r.nextInt(67)).toDouble
      Seq(InPred("hd_dep_count", Set(r.nextInt(10).toDouble)),
          RangePred("c_birth_year", y, y + 10))
    },
    QueryTemplate("q89") { r =>
      Seq(InPred("d_year", Set(r.nextInt(5).toDouble)),
          InPred("i_category", Seq.fill(3)(r.nextInt(10).toDouble).toSet))
    },
    QueryTemplate("q96") { r =>
      val a = r.nextInt(80).toDouble
      Seq(InPred("hd_dep_count", Set(r.nextInt(10).toDouble)),
          RangePred("ss_quantity", a, a + 20))
    },
    QueryTemplate("q98") { r =>
      val d = r.nextInt(MaxDay - 30)
      Seq(RangePred("ss_sold_date", d, d + 29),
          InPred("i_category", Set(r.nextInt(10).toDouble)))
    },
  )
}
