package repro.spark

import org.apache.spark.sql.{Column, DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions.{col, struct, udf}
import repro.core.{LayoutMetadata, Query, TableSchema}
import repro.layout.Layout

/** The paper's "shallow integration" with Spark (§VI-A1):
  *
  *  - every row gets a `BID` column computed by the active layout's
  *    routing function, `bidOf`, the same function the simulation routes by;
  *  - the table is written as Parquet **partitioned by BID**, so each
  *    partition is its own file set (the paper rewrites "rows with the same
  *    BID into a new partition, stored as a Parquet file");
  *  - queries are rewritten with an explicit `BID IN (...)` filter computed
  *    from partition-level metadata, which Catalyst turns into partition
  *    (directory) pruning — irrelevant partitions are never read.
  */
object BidTable {

  val BidCol = "BID"

  /** `layout.bidOf` over the columns of `schema`, in schema order and read as
    * doubles as [[repro.core.DataMatrix.collect]] reads them: one deterministic
    * UDF of the row. It only materializes BIDs for [[write]], never inside a
    * query plan, so no predicate pushdown is lost; metadata routes the
    * collected rows through `bidOf` itself ([[repro.core.MetadataBuilder]]).
    */
  def bidColumn(layout: Layout, schema: TableSchema): Column =
    udf((r: Row) => layout.bidOf(r.getDouble))
      .apply(struct(schema.names.map(n => col(n).cast("double")): _*))

  /** Materialize `df` under `layout` at `path` (Parquet, partitioned by BID). */
  def write(df: DataFrame, schema: TableSchema, layout: Layout, path: String): Unit =
    df.withColumn(BidCol, bidColumn(layout, schema))
      .repartition(col(BidCol))
      .write
      .mode("overwrite")
      .partitionBy(BidCol)
      .parquet(path)

  /** Open a BID-partitioned table. */
  def read(spark: SparkSession, path: String): DataFrame = spark.read.parquet(path)

  /** Rewrite a query into "BID IN (needed) AND original predicate" — the
    * explicit partition filter of §VI-A1 (e.g., `BID IN (6, 10)`).
    * Returns the filtered DataFrame; callers add their aggregates on top.
    */
  def rewrite(table: DataFrame, q: Query, metadata: LayoutMetadata): DataFrame = {
    val bids = metadata.partitionsNeeded(q)
    table
      .filter(col(BidCol).isin(bids.map(Integer.valueOf): _*))
      .filter(q.toColumn)
  }

  /** Number of partitions the metadata says this query must read. */
  def partitionsRead(q: Query, metadata: LayoutMetadata): Int =
    metadata.partitionsNeeded(q).size
}
