package repro.perfbench

import com.fasterxml.jackson.databind.ObjectMapper
import java.io.File
import org.scalatest.funsuite.AnyFunSuite
import scala.jdk.CollectionConverters._

/** Tiny-size runs of every workload: each prints every metric that
  * BENCHMARK.json declares, with the declared unit, and passes its checks.
  */
class SmokeSpec extends AnyFunSuite {
  private val json = new ObjectMapper
  private val declared = json.readTree(new File("../BENCHMARK.json"))
  private def metrics(group: String): Map[String, String] =
    declared.get(group).elements.asScala.map(m => m.get("name").asText -> m.get("unit").asText).toMap

  test("the declared metrics are the ones the benchmark reports") {
    assert(metrics("end_to_end").keySet == Main.EndToEnd.toSet)
    assert(metrics("per_layer").keySet == Main.PerLayer.toSet)
    val workloads = declared.get("workloads").elements.asScala.map(_.get("name").asText).toSeq
    workloads.foreach(Main.workload) // every declared workload exists
  }

  for (w <- Seq("replay-tpch", "physical-tpch"); trace <- Seq(false, true)) {
    test(s"$w at tiny size, trace=$trace") {
      val out = new File(s"target/smoke").getAbsolutePath
      val line = Main.run(Main.Args(w, seed = 3, seconds = 0.2, trace = trace, out = out, scale = 0.02, Nil))
      assert(line.isDefined, "the run printed no result")
      val r = json.readTree(line.get)
      assert(r.get("correct").asBoolean)
      assert(r.get("failed").asInt == 0)
      assert(r.get("attempted").asInt > 0)
      val want = metrics(if (trace) "per_layer" else "end_to_end")
      val got = r.get("metrics").fields.asScala.map(e => e.getKey -> e.getValue.get("unit").asText).toMap
      assert(got == want)
      assert(r.get("metrics").elements.asScala.forall(_.get("value").isNumber))
      if (trace) assert(new File(out, s"$w-seed3.spans.jsonl").length > 0)
    }
  }
}
