package repro.workload

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{InPred, RangePred}
import repro.data.{TelemetryData, TpcdsLite, TpchLite}
import scala.util.Random

class WorkloadGenSpec extends AnyFunSuite {

  private val templates = TpchLite.templates

  test("generates the requested number of queries") {
    val w = WorkloadGen.generate(templates, 1000, 10, 1)
    assert(w.size == 1000)
  }

  test("query ids are sequential stream positions") {
    val w = WorkloadGen.generate(templates, 500, 5, 1)
    assert(w.queries.map(_.id) == (0 until 500).toVector)
  }

  test("produces the requested number of segments") {
    val w = WorkloadGen.generate(templates, 1000, 10, 1)
    assert(w.segmentStarts.size == 10)
    assert(w.segmentTemplates.size == 10)
    assert(w.segmentStarts.head == 0)
    assert(w.segmentStarts == w.segmentStarts.sorted)
  }

  test("no immediate template repeats between segments") {
    val w = WorkloadGen.generate(templates, 2000, 20, 7)
    w.segmentTemplates.sliding(2).foreach {
      case Vector(a, b) => assert(a != b)
      case _            =>
    }
  }

  test("each query is tagged with its segment's template") {
    val w = WorkloadGen.generate(templates, 1000, 10, 3)
    for ((start, idx) <- w.segmentStarts.zipWithIndex) {
      assert(w.queries(start).template == w.segmentTemplates(idx))
    }
  }

  test("deterministic in the seed") {
    val a = WorkloadGen.generate(templates, 300, 6, 11)
    val b = WorkloadGen.generate(templates, 300, 6, 11)
    assert(a.queries.map(_.preds) == b.queries.map(_.preds))
    val c = WorkloadGen.generate(templates, 300, 6, 12)
    assert(a.queries.map(_.preds) != c.queries.map(_.preds))
  }

  test("segments have non-degenerate lengths") {
    val w = WorkloadGen.generate(templates, 3000, 20, 5)
    val lens = (w.segmentStarts :+ w.size).sliding(2).map(p => p(1) - p(0)).toSeq
    assert(lens.forall(_ >= 1))
    assert(lens.max < 3000 / 2) // no segment dominates the stream
  }

  test("single-template workloads are allowed") {
    val one = IndexedSeq(templates.head)
    val w = WorkloadGen.generate(one, 100, 4, 1)
    assert(w.queries.forall(_.template == 0))
  }

  // --- template sanity across all three datasets ---
  private def checkTemplates(name: String, ts: IndexedSeq[QueryTemplate],
                             schema: repro.core.TableSchema): Unit = {
    val rng = new Random(42)
    for (t <- ts; _ <- 1 to 20) {
      val preds = t.instantiate(rng)
      assert(preds.nonEmpty, s"$name/${t.name}: no predicates")
      for (p <- preds) {
        // resolves against the schema (throws on typos)
        schema.indexOf(p.colName)
        p match {
          case RangePred(_, lo, hi) => assert(lo <= hi, s"$name/${t.name}: empty range")
          case InPred(_, vs)        => assert(vs.nonEmpty, s"$name/${t.name}: empty set")
        }
      }
    }
  }

  test("TPC-H templates instantiate against the TPC-H schema") {
    checkTemplates("tpch", TpchLite.templates, TpchLite.schema)
    assert(TpchLite.templates.size == 13)
  }

  test("TPC-DS templates instantiate against the TPC-DS schema") {
    checkTemplates("tpcds", TpcdsLite.templates, TpcdsLite.schema)
    assert(TpcdsLite.templates.size == 17)
  }

  test("telemetry templates instantiate against the telemetry schema") {
    checkTemplates("telemetry", TelemetryData.templates, TelemetryData.schema)
    assert(TelemetryData.templates.size == 8)
  }

  test("tpch categorical predicates use valid dictionary codes") {
    val rng = new Random(1)
    for (t <- TpchLite.templates; _ <- 1 to 30; p <- t.instantiate(rng)) p match {
      case InPred(col, vs) =>
        val card = TpchLite.schema.columns(TpchLite.schema.indexOf(col)).cardinality
        if (card > 0) assert(vs.forall(v => v >= 0 && v < card), s"${t.name}/$col: $vs")
      case _ =>
    }
  }

  test("telemetry time ranges stay within the table's domain") {
    val rng = new Random(1)
    for (t <- TelemetryData.templates; _ <- 1 to 50; p <- t.instantiate(rng)) p match {
      case RangePred("arrival_h", lo, _) =>
        assert(lo >= 0 && lo <= TelemetryData.MaxHour)
      case _ =>
    }
  }
}
