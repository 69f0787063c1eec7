package repro.spark

import java.nio.file.Files
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.core._
import repro.data.TpchLite
import repro.layout.{Layout, QdTree, RangeLayout, ZOrder}
import scala.jdk.CollectionConverters._
import scala.util.Random

/** End-to-end checks of the shallow Spark integration: BID materialization,
  * Parquet-partitioned storage, metadata-driven query rewriting — verified
  * for result equality against DuckDB running the *unrewritten* query.
  */
class BidTableSpec extends SparkSpec {

  private lazy val workDir = Files.createTempDirectory("bidtable").toString
  private val sf = 0.002
  /** The ≈12k-row TPCH-lite table, held on the driver: a write, a count or an
    * oracle load of it starts no job over the join's shuffle partitions.
    */
  private lazy val df = {
    val joined = TpchLite.denorm(spark, sf)
    spark.createDataFrame(joined.collect().toSeq.asJava, joined.schema)
  }
  private lazy val data = DataMatrix.collect(df, TpchLite.schema)

  private lazy val trainQueries = {
    val rng = new Random(1)
    Vector.tabulate(100)(i => Query(i, i % 13, TpchLite.templates(i % 13).instantiate(rng)))
  }
  private lazy val qdLayout = QdTree.build(data.sample(1000, 2), trainQueries, 8, "qd-test")
  private lazy val zLayout = ZOrder.build(data.sample(1000, 2), trainQueries, 8, "z-test")

  /** `df` written under `layout` to a fresh directory `name`. */
  private def written(layout: Layout, name: String): String = {
    val p = s"$workDir/$name"
    BidTable.write(df, TpchLite.schema, layout, p)
    p
  }
  private lazy val qdPath = written(qdLayout, "qd")
  private lazy val qdMeta = MetadataBuilder.fromMatrix(data, qdLayout)
  private lazy val zPath = written(zLayout, "z")
  private lazy val zMeta = MetadataBuilder.fromMatrix(data, zLayout)
  private lazy val rangeLayout = {
    val j = TpchLite.schema.indexOf("o_orderdate")
    RangeLayout.equiDepth("by-date", j, data.cols(j), 8)
  }
  private lazy val rangePath = written(rangeLayout, "range")
  private lazy val rangeMeta = MetadataBuilder.fromMatrix(data, rangeLayout)
  /** The Qd-tree table reorganized to the range layout, and the seconds it took. */
  private lazy val (reorgPath, reorgSecs) = {
    val p = s"$workDir/qd-to-range"
    (p, PhysicalReorg.timeReorg(spark, qdPath, TpchLite.schema, rangeLayout, p))
  }

  /** The rows per BID value of the table at `path` are those of `meta`, i.e.
    * `BidTable.bidColumn` routes every row as the layout's `bidOf` does.
    */
  private def assertBidCounts(path: String, meta: LayoutMetadata): Unit = {
    val counts = BidTable.read(spark, path).groupBy(BidTable.BidCol).count().collect()
      .map(r => r.getAs[Number](0).intValue() -> r.getLong(1)).toMap
    assert(counts == meta.partitions.map(p => p.bid -> p.rowCount).toMap)
  }

  /** `qs`, of distinct templates, rewritten with `meta` over `table`, against
    * DuckDB on the unrewritten `df`: one union of the per-query aggregates on
    * each side, each row tagged with its query's template.
    */
  private def assertRewritten(table: DataFrame, meta: LayoutMetadata, qs: Seq[Query]): Unit = {
    val sparkRes = qs.map { q =>
      BidTable.rewrite(table, q, meta)
        .agg(count(lit(1)) as "cnt", round(sum(col("l_quantity")), 2) as "qty")
        .select(lit(q.template) as "template", col("cnt"), col("qty"))
    }.reduce(_ union _)
    val sql = qs.map(q =>
      s"SELECT ${q.template} AS template, count(*) AS cnt, round(sum(l_quantity), 2) AS qty " +
      s"FROM t WHERE ${q.toSql}").mkString(" UNION ALL ")
    Oracle.assertEquivalent(sparkRes, sql, "t" -> df)
  }

  /** [[assertRewritten]] on one query of each of the 13 templates. */
  private def assertAllTemplates(table: DataFrame, meta: LayoutMetadata, seed: Long): Unit = {
    val rng = new Random(seed)
    assertRewritten(table, meta,
      TpchLite.templates.indices.map(t => Query(t, t, TpchLite.templates(t).instantiate(rng))))
  }

  test("write produces one directory per BID") {
    val dirs = new java.io.File(qdPath).listFiles().filter(_.isDirectory)
      .map(_.getName).filter(_.startsWith("BID="))
    assert(dirs.nonEmpty)
    assert(dirs.length == qdMeta.partitions.size)
  }

  test("written table preserves the row count") {
    assert(BidTable.read(spark, qdPath).count() == df.count())
  }

  test("BID column values match local routing metadata") {
    assertBidCounts(qdPath, qdMeta)
  }

  test("Z-order BID column values match local routing metadata") {
    assertBidCounts(zPath, zMeta)
  }

  test("fromDataFrame over the written Qd-tree and Z-order tables matches fromMatrix on the driver rows") {
    for ((path, layout, meta) <- Seq((qdPath, qdLayout, qdMeta), (zPath, zLayout, zMeta))) {
      val table = BidTable.read(spark, path)
      assert(table.columns.contains(BidTable.BidCol))
      assert(MetadataBuilder.fromDataFrame(table, TpchLite.schema, layout).partitions == meta.partitions, layout.id)
    }
  }

  test("rewritten query equals DuckDB on the full, unfiltered table") {
    val rng = new Random(7)
    assertRewritten(BidTable.read(spark, qdPath), qdMeta,
      Seq(0, 4, 5, 9, 12).map(t => Query(0, t, TpchLite.templates(t).instantiate(rng))))
  }

  test("every template's rewritten query equals DuckDB on the Qd-tree layout") {
    assertAllTemplates(BidTable.read(spark, qdPath), qdMeta, 21)
  }

  test("every template's rewritten query equals DuckDB on the Z-order layout") {
    assertAllTemplates(BidTable.read(spark, zPath), zMeta, 22)
  }

  test("selective queries actually prune partitions") {
    val rng = new Random(3)
    var pruned = 0
    for (i <- 0 until 20) {
      val q = Query(i, 9, TpchLite.templates(9).instantiate(rng)) // q14: 30-day range
      if (BidTable.partitionsRead(q, qdMeta) < qdMeta.partitions.size) pruned += 1
    }
    assert(pruned > 10, s"expected pruning on most selective queries; got $pruned/20")
  }

  test("a query with an always-true predicate reads every partition") {
    val q = Query(0, 0, Seq(RangePred("l_quantity", -1e9, 1e9)))
    assert(BidTable.partitionsRead(q, qdMeta) == qdMeta.partitions.size)
    val cnt = BidTable.rewrite(BidTable.read(spark, qdPath), q, qdMeta).count()
    assert(cnt == df.count())
  }

  test("reorganization to a different layout preserves content") {
    assert(reorgSecs > 0)
    val reorged = BidTable.read(spark, reorgPath)
    assert(reorged.count() == df.count())
    // content equality on a checksum aggregate
    val a = df.agg(round(sum(col("l_extendedprice")), 0)).collect()(0).getDouble(0)
    val b = reorged.agg(round(sum(col("l_extendedprice")), 0)).collect()(0).getDouble(0)
    assert(a == b)
  }

  test("rewritten queries stay correct after reorganization") {
    val rng = new Random(11)
    val q = Query(0, 2, TpchLite.templates(2).instantiate(rng)) // q4: orderdate range
    val sparkRes = BidTable.rewrite(BidTable.read(spark, rangePath), q, rangeMeta)
      .agg(count(lit(1)) as "cnt")
    Oracle.assertEquivalent(sparkRes,
      s"SELECT count(*) AS cnt FROM t WHERE ${q.toSql}", "t" -> df)
  }

  test("every template's rewritten query equals DuckDB on the range layout") {
    assertAllTemplates(BidTable.read(spark, rangePath), rangeMeta, 23)
  }

  test("every template's rewritten query equals DuckDB after reorganization") {
    assertBidCounts(reorgPath, rangeMeta)
    assertAllTemplates(BidTable.read(spark, reorgPath), rangeMeta, 24)
  }

  test("full scan timing is positive and repeatable") {
    val s1 = PhysicalReorg.timeFullScan(spark, qdPath, TpchLite.schema)
    val s2 = PhysicalReorg.timeFullScan(spark, qdPath, TpchLite.schema)
    assert(s1 > 0 && s2 > 0)
  }

  test("dirSizeMb sees the written files") {
    assert(PhysicalReorg.dirSizeMb(qdPath) > 0.01)
  }

  test("deleteDir removes scratch directories") {
    val p = s"$workDir/scratch"
    BidTable.write(df.limit(100), TpchLite.schema, qdLayout, p)
    assert(PhysicalReorg.dirSizeMb(p) > 0)
    PhysicalReorg.deleteDir(p)
    assert(PhysicalReorg.dirSizeMb(p) == 0.0)
  }
}
