package repro.perfbench

import repro.workload.{QueryTemplate, Workload, WorkloadGen}

/** Query streams of the benchmark, in the paper's segment shape.
  *
  * Each round visits every template once, in template order, and every
  * segment has the same length; the seed draws each segment's queries
  * through `WorkloadGen`. A single `WorkloadGen` stream also draws its
  * template mix, order and segment lengths, which moves the work a pass does
  * by ±20 % from seed to seed; with a fixed schedule every seed does
  * comparable work, and the seed moves only what the queries ask for.
  */
object Streams {
  def rounds(templates: IndexedSeq[QueryTemplate], rounds: Int, segmentLength: Int, seed: Long): Workload = {
    require(rounds >= 1 && segmentLength >= 1)
    val order = Vector.fill(rounds)(templates.indices).flatten
    val queries = order.zipWithIndex.flatMap { case (t, i) =>
      WorkloadGen.generate(IndexedSeq(templates(t)), segmentLength, 1, seed * 1009 + i).queries
        .map(q => q.copy(id = i * segmentLength + q.id, template = t))
    }
    Workload(queries, order.indices.map(_ * segmentLength).toVector, order)
  }
}
