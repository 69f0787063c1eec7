package repro.data

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.SynthData
import repro.core._
import repro.workload.QueryTemplate
import scala.util.Random

/** TPC-H-lite: the paper's TPC-H setup scaled down (DESIGN.md §3).
  *
  * The paper denormalizes all tables against lineitem (SF100, 58 columns,
  * one 40M-row shard). We join the four `SynthData` tables into a 16-column
  * encoded fact table and use 13 query templates mirroring the paper's
  * template list (q1,q3,q4,q5,q6,q7,q8,q10,q12,q14,q17,q19,q21 — q19 stands
  * in for one of the two excluded templates to keep 13).
  */
object TpchLite {

  val ReturnFlags: Seq[String] = Seq("N", "R", "A")
  val LineStatus: Seq[String] = Seq("O", "F")
  val OrderStatus: Seq[String] = Seq("O", "F", "P")
  val MktSegments: Seq[String] = Seq("BUILDING", "AUTOMOBILE", "MACHINERY", "HOUSEHOLD", "FURNITURE")
  val PartTypes: Seq[String] = Seq("STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO")

  /** Day-offset domains (epoch 1992-01-01), matching SynthData's generators. */
  val MaxShipDay = 2556
  val MaxOrderDay = 2405

  val schema: TableSchema = TableSchema(IndexedSeq(
    ColumnDef("l_quantity"),
    ColumnDef("l_extendedprice"),
    ColumnDef("l_discount"),
    ColumnDef("l_tax"),
    ColumnDef("l_shipdate"),
    ColumnDef("l_returnflag", isCategorical = true, cardinality = 3),
    ColumnDef("l_linestatus", isCategorical = true, cardinality = 2),
    ColumnDef("o_totalprice"),
    ColumnDef("o_orderdate"),
    ColumnDef("o_orderstatus", isCategorical = true, cardinality = 3),
    ColumnDef("c_nationkey", isCategorical = true, cardinality = 25),
    ColumnDef("c_acctbal"),
    ColumnDef("c_mktsegment", isCategorical = true, cardinality = 5),
    ColumnDef("p_type", isCategorical = true, cardinality = 6),
    ColumnDef("p_size"),
    ColumnDef("p_retailprice"),
  ))

  /** Encoded denormalized fact table (~6M·sf rows). */
  def denorm(spark: SparkSession, sf: Double = 0.01, seed: Long = 0): DataFrame = {
    val li = SynthData.lineitem(spark, sf, seed)
    val or = SynthData.orders(spark, sf, seed + 100)
    val cu = SynthData.customer(spark, sf, seed + 200)
    val pa = SynthData.part(spark, sf, seed + 300)
    li.join(or, li("l_orderkey") === or("o_orderkey"))
      .join(cu, or("o_custkey") === cu("c_custkey"))
      .join(pa, li("l_partkey") === pa("p_partkey"))
      .select(
        col("l_quantity").cast("double"),
        col("l_extendedprice").cast("double"),
        col("l_discount").cast("double"),
        col("l_tax").cast("double"),
        Encoding.days(col("l_shipdate"), "1992-01-01") as "l_shipdate",
        Encoding.cat(col("l_returnflag"), ReturnFlags) as "l_returnflag",
        Encoding.cat(col("l_linestatus"), LineStatus) as "l_linestatus",
        col("o_totalprice").cast("double"),
        Encoding.days(col("o_orderdate"), "1992-01-01") as "o_orderdate",
        Encoding.cat(col("o_orderstatus"), OrderStatus) as "o_orderstatus",
        col("c_nationkey").cast("double"),
        col("c_acctbal").cast("double"),
        Encoding.cat(col("c_mktsegment"), MktSegments) as "c_mktsegment",
        Encoding.cat(col("p_type"), PartTypes) as "p_type",
        col("p_size").cast("double"),
        col("p_retailprice").cast("double"),
      )
  }

  /** 13 templates shaped after the paper's TPC-H template list. */
  val templates: IndexedSeq[QueryTemplate] = IndexedSeq(
    QueryTemplate("q1") { r =>
      Seq(RangePred("l_shipdate", 0, 2100 + r.nextInt(400)))
    },
    QueryTemplate("q3") { r =>
      val d = 1000 + r.nextInt(400)
      Seq(InPred("c_mktsegment", Set(r.nextInt(5).toDouble)),
          RangePred("o_orderdate", 0, d - 1),
          RangePred("l_shipdate", d + 1, MaxShipDay))
    },
    QueryTemplate("q4") { r =>
      val d = r.nextInt(MaxOrderDay - 90)
      Seq(RangePred("o_orderdate", d, d + 89))
    },
    QueryTemplate("q5") { r =>
      val d = r.nextInt(MaxOrderDay - 365)
      val nations = Seq.fill(5)(r.nextInt(25).toDouble).toSet
      Seq(InPred("c_nationkey", nations), RangePred("o_orderdate", d, d + 364))
    },
    QueryTemplate("q6") { r =>
      val d = r.nextInt(MaxShipDay - 365)
      val disc = 0.02 + r.nextInt(7) * 0.01
      Seq(RangePred("l_shipdate", d, d + 364),
          RangePred("l_discount", disc - 0.011, disc + 0.011),
          RangePred("l_quantity", 0, 20 + r.nextInt(11)))
    },
    QueryTemplate("q7") { r =>
      Seq(InPred("c_nationkey", Set(r.nextInt(25).toDouble, r.nextInt(25).toDouble)),
          RangePred("l_shipdate", 1095, 1825))
    },
    QueryTemplate("q8") { r =>
      Seq(InPred("p_type", Set(r.nextInt(6).toDouble)),
          RangePred("o_orderdate", 1095, 1825))
    },
    QueryTemplate("q10") { r =>
      val d = r.nextInt(MaxOrderDay - 90)
      Seq(RangePred("o_orderdate", d, d + 89), InPred("l_returnflag", Set(1.0)))
    },
    QueryTemplate("q12") { r =>
      val d = r.nextInt(MaxShipDay - 365)
      Seq(RangePred("l_shipdate", d, d + 364), InPred("o_orderstatus", Set(1.0)))
    },
    QueryTemplate("q14") { r =>
      val d = r.nextInt(MaxShipDay - 30)
      Seq(RangePred("l_shipdate", d, d + 29))
    },
    QueryTemplate("q17") { r =>
      Seq(InPred("p_type", Set(r.nextInt(6).toDouble)),
          RangePred("l_quantity", 0, 1 + r.nextInt(10)))
    },
    QueryTemplate("q19") { r =>
      val s = 1 + r.nextInt(40); val q = 1 + r.nextInt(40)
      Seq(RangePred("p_size", s, s + 10), RangePred("l_quantity", q, q + 10))
    },
    QueryTemplate("q21") { r =>
      Seq(InPred("o_orderstatus", Set(1.0)),
          InPred("c_nationkey", Set(r.nextInt(25).toDouble)))
    },
  )
}
