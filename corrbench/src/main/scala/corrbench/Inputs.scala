package corrbench

import org.apache.spark.SparkConf
import org.apache.spark.serializer.KryoSerializer
import repro.core.CorrelationSketch
import repro.data.{KVTable, TableGen}

import scala.collection.mutable

/** Input helpers shared by the workloads. */
object Inputs {

  /** An NYC-like collection whose group key domains are spread evenly over
    * [minKeys, maxKeys] instead of drawn at random, so that the amount of
    * work does not swing with the seed; keys, values, correlations, keep
    * rates and repeats still come from `TableGen.nycLike` and the seed.
    */
  def nycStratified(groups: Int, pairsPerGroup: Int, minKeys: Int, maxKeys: Int,
                    minKeep: Double, seed: Long): Seq[KVTable] =
    (0 until groups).flatMap { g =>
      val n = minKeys + ((g + 0.5) / groups * (maxKeys - minKeys)).toInt
      val cfg = TableGen.CollectionConfig(numGroups = 1, pairsPerGroup = pairsPerGroup,
        minKeys = n, maxKeys = n + 1, minKeep = minKeep)
      def rename(s: String) = s"g$g:" + s.stripPrefix("g0:")
      TableGen.nycLike(cfg, Stats.mix(seed, g, 0)).map(t => KVTable(rename(t.id), t.keys.map(rename), t.values))
    }

  /** One sketch per table, built on this thread with `fromColumns`. */
  def localSketches(tables: Seq[KVTable], k: Int): Map[String, CorrelationSketch] =
    tables.map(t => t.id -> CorrelationSketch.fromColumns(t.keys, t.values, k)).toMap

  /** Mean Kryo-serialized size of a sketch: the encoding `buildAll` ships and collects. */
  def kryoBytes(sketches: Iterable[CorrelationSketch]): Double = {
    val ser = new KryoSerializer(new SparkConf()).newInstance()
    sketches.map(s => ser.serialize(s).remaining().toDouble).sum / sketches.size
  }

  def distinctKeys(t: KVTable): Int = t.keys.distinct.length

  /** Mean per-key values of a table, the reference side of every full join. */
  def means(t: KVTable): mutable.HashMap[String, Double] = {
    val acc = mutable.HashMap.empty[String, (Double, Int)]
    t.keys.indices.foreach { i =>
      val (s, c) = acc.getOrElse(t.keys(i), (0.0, 0))
      acc(t.keys(i)) = (s + t.values(i), c + 1)
    }
    acc.map { case (k, (s, c)) => k -> s / c }
  }

  /** p10 / p50 / p90 of a size distribution, as text for the input profile. */
  def spread(xs: Seq[Double]): String = {
    val a = xs.toArray
    f"p10=${Stats.quantile(a, 0.1)}%.0f p50=${Stats.quantile(a, 0.5)}%.0f p90=${Stats.quantile(a, 0.9)}%.0f"
  }
}
