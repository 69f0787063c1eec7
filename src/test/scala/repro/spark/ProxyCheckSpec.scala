package repro.spark

import java.nio.file.Files
import repro.SparkSpec
import repro.core._
import repro.data.TpchLite
import repro.exp.{Datasets, DatasetSpec}
import repro.layout.QdTreeGen
import scala.util.Random

/** Validates the paper's cost proxy end-to-end: the fraction of data a
  * query accesses (per metadata) versus the wall-clock of the physically
  * rewritten `BID IN (...)` query on Parquet. The paper relies on this
  * proxy for all simulation results (§III-A, refs [7], [15]).
  */
class ProxyCheckSpec extends SparkSpec {

  /** Runs a random sample of `nPhysical` rewritten (BID-filtered) queries on
    * the Parquet table at `tablePath` and reports (fraction accessed,
    * seconds) pairs, which should correlate positively (see EXPERIMENTS.md).
    */
  private def proxyCheck(ds: DatasetSpec, tablePath: String, state: LayoutState,
                         nPhysical: Int, seed: Long = 3): Seq[(Double, Double)] = {
    val rng = new Random(seed)
    val table = BidTable.read(spark, tablePath)
    val wl = ds.mkWorkload(1000, ds.paperSegments, 99)
    (1 to nPhysical).map { _ =>
      val q = wl.queries(rng.nextInt(wl.queries.size))
      val frac = state.cost(q)
      val sec = PhysicalReorg.timed {
        BidTable.rewrite(table, q, state.metadata).count()
      }
      (frac, sec)
    }
  }

  test("fraction-accessed proxy pairs are well-formed and selective queries run faster-or-equal work") {
    val dir = Files.createTempDirectory("proxy").toString
    val df = TpchLite.denorm(spark, 0.002)
    val data = DataMatrix.collect(df, TpchLite.schema)
    val rng = new Random(5)
    val qs = Vector.tabulate(100)(i =>
      Query(i, i % 13, TpchLite.templates(i % 13).instantiate(rng)))
    val layout = QdTreeGen.generate(data.sample(1000, 1), qs, 8, "proxy-qd")
    val state = CandidateStream.state(layout, data)
    BidTable.write(df, TpchLite.schema, layout, s"$dir/t")

    val pairs = proxyCheck(Datasets.tpch, s"$dir/t", state, nPhysical = 10)
    assert(pairs.size == 10)
    for ((frac, sec) <- pairs) {
      assert(frac >= 0.0 && frac <= 1.0)
      assert(sec > 0.0)
    }
    // partitions actually read tracks the fraction: queries with frac < 1
    // must prune at least one partition
    val selective = pairs.count(_._1 < 0.999)
    assert(selective > 0, "expected some selective queries in the sample")
  }

  test("physically read row counts match the metadata fraction exactly") {
    val dir = Files.createTempDirectory("proxy2").toString
    val df = TpchLite.denorm(spark, 0.002)
    val data = DataMatrix.collect(df, TpchLite.schema)
    val rng = new Random(6)
    val qs = Vector.tabulate(60)(i =>
      Query(i, i % 13, TpchLite.templates(i % 13).instantiate(rng)))
    val layout = QdTreeGen.generate(data.sample(1000, 2), qs, 8, "proxy-qd2")
    val state = CandidateStream.state(layout, data)
    val path = s"$dir/t"
    BidTable.write(df, TpchLite.schema, layout, path)
    val table = BidTable.read(spark, path)
    val total = data.numRows.toDouble

    for (t <- Seq(2, 9)) { // date-range templates with real selectivity
      val q = Query(0, t, TpchLite.templates(t).instantiate(rng))
      val bids = state.metadata.partitionsNeeded(q)
      // rows in the partitions the metadata says we must read
      val rowsRead = table
        .filter(org.apache.spark.sql.functions.col(BidTable.BidCol)
          .isin(bids.map(Integer.valueOf): _*))
        .count()
      assert(math.abs(rowsRead / total - state.cost(q)) < 1e-9,
        s"template $t: physical rows read must equal the metadata fraction")
    }
  }
}
