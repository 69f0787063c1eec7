package repro.bench

import repro.SparkSpec
import repro.exp.{DatasetSpec, Lab}
import scala.collection.mutable

/** The one experiment set-up per dataset (sf 0.02, full-length streams) that
  * the simulation suites share: all suites run in one JVM on
  * [[SparkSpec.shared]], so each dataset is collected and each candidate
  * stream generated once, on first use.
  */
object BenchSetups {
  private val setups = mutable.Map.empty[String, Lab.Setup]

  def apply(ds: DatasetSpec): Lab.Setup = synchronized {
    setups.getOrElseUpdate(ds.name, Lab.setup(SparkSpec.shared, ds, sf = 0.02))
  }
}
