package repro.exp

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.TableSchema
import repro.data.{TelemetryData, TpcdsLite, TpchLite}
import repro.workload.{QueryTemplate, Workload, WorkloadGen}

/** Descriptor of one evaluation dataset + its workload generator.
  *
  * @param defaultCol sort/arrival column of the default (pre-optimization) layout
  */
final case class DatasetSpec(
    name: String,
    schema: TableSchema,
    templates: IndexedSeq[QueryTemplate],
    defaultCol: String,
    mkDf: (SparkSession, Double) => DataFrame,
    paperQueries: Int,
    paperSegments: Int,
) {
  /** A stream of `nQueries` queries over the templates in `nSegments`
    * segments (§VI-A2), deterministic in `seed`.
    */
  def mkWorkload(nQueries: Int, nSegments: Int, seed: Long): Workload =
    WorkloadGen.generate(templates, nQueries, nSegments, seed)
}

/** The paper's three evaluation datasets (§VI-A2), at reproduction scale. */
object Datasets {

  val tpch: DatasetSpec = DatasetSpec(
    "TPCH", TpchLite.schema, TpchLite.templates, "o_orderdate",
    (s, sf) => TpchLite.denorm(s, sf), 30000, 20)

  val tpcds: DatasetSpec = DatasetSpec(
    "TPCDS", TpcdsLite.schema, TpcdsLite.templates, "ss_sold_date",
    (s, sf) => TpcdsLite.storeSalesDenorm(s, sf), 30000, 20)

  val telemetry: DatasetSpec = DatasetSpec(
    "Telemetry", TelemetryData.schema, TelemetryData.templates, "arrival_h",
    (s, sf) => TelemetryData.table(s, sf), 24000, 16)

  val all: Seq[DatasetSpec] = Seq(tpch, tpcds, telemetry)
}
